"""Curvature functionals, medians, shells and good sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpedsphere import (alignment_constants, core_integrals,
                          csc_hessian_l1, good_set_volumes, point_pick,
                          polar_average, polar_csc3, ratio_seminorm,
                          round_sphere, scalar_deficit, shell_integral,
                          shell_select, weighted_median)
from warpedsphere import functionals
from warpedsphere.errors import DomainError, ResidualGuardError
from warpedsphere.functionals import Evaluation, sublevel_round_volume
from warpedsphere.grids import PI

from conftest import REFERENCE_NAMES


class TestCoreIntegralsRound:
    def test_csc2_is_8pi(self, round_metric, round_potential):
        ci = core_integrals(round_metric, round_potential)
        assert ci.i_csc2 == pytest.approx(8.0 * PI, rel=1e-6)

    def test_alignment_and_mass_vanish(self, round_metric, round_potential):
        ci = core_integrals(round_metric, round_potential)
        assert abs(ci.i_align) < 1e-8
        assert abs(ci.i_mass) < 1e-8
        assert abs(ci.i_deficit) < 1e-6

    def test_gradient_norms(self, round_metric, round_potential):
        ci = core_integrals(round_metric, round_potential)
        # |grad u| = sin: L1 = 8pi/... int |u'| f^2 * 4pi = 4pi * int sin^3
        assert ci.grad_l1 == pytest.approx(16.0 * PI / 3.0, rel=1e-8)
        assert ci.grad_l2 == pytest.approx(np.sqrt(3.0 * PI**2 / 2.0),
                                           rel=1e-8)

    def test_seminorms_vanish(self, round_metric, round_potential):
        assert ratio_seminorm(round_metric, round_potential) < 1e-8
        assert csc_hessian_l1(round_metric, round_potential) < 1e-4


class TestGuard:
    def test_corrupted_potential_refused(self, round_metric,
                                         corrupted_potential):
        with pytest.raises(ResidualGuardError):
            core_integrals(round_metric, corrupted_potential)

    @pytest.mark.parametrize("evaluate", [
        core_integrals, csc_hessian_l1, ratio_seminorm, alignment_constants,
        shell_select, lambda metric, pot: polar_csc3(metric, pot, PI / 16),
        Evaluation])
    def test_every_evaluator_refuses(self, round_metric, corrupted_potential,
                                     evaluate):
        with pytest.raises(ResidualGuardError):
            evaluate(round_metric, corrupted_potential)


class TestEvaluation:
    """One Evaluation per (metric, potential): guard once, values equal to
    the public evaluators, each computed once."""

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_attributes_match_public_evaluators(self, reference_metrics,
                                                reference_potentials, name):
        metric, pot = reference_metrics[name], reference_potentials[name]
        ev = Evaluation(metric, pot)
        assert ev.core == core_integrals(metric, pot)
        assert ev.csc_hessian_l1 == csc_hessian_l1(metric, pot)
        assert ev.ratio_seminorm == ratio_seminorm(metric, pot)
        assert ev.alignment == alignment_constants(metric, pot)
        assert ev.shells == shell_select(metric, pot)
        assert ev.polar_csc3(PI / 8) == polar_csc3(metric, pot, PI / 8)
        assert ev.m == scalar_deficit(metric)

    def test_guard_and_fields_once(self, reference_metrics,
                                   reference_potentials, monkeypatch):
        calls = {"flux_residual": 0, "refine_nodes": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(functionals, "flux_residual",
                            counted("flux_residual",
                                    functionals.flux_residual))
        monkeypatch.setattr(functionals, "refine_nodes",
                            counted("refine_nodes", functionals.refine_nodes))
        ev = Evaluation(reference_metrics["bump"],
                        reference_potentials["bump"])
        for _ in range(2):
            ev.core, ev.csc_hessian_l1, ev.ratio_seminorm
        assert calls == {"flux_residual": 1, "refine_nodes": 1}


class TestIdentityChain:
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_flux_inequalities_hold(self, reference_metrics,
                                    reference_potentials, name):
        ci = core_integrals(reference_metrics[name],
                            reference_potentials[name])
        tol = 1e-6
        assert ci.i_csc2 <= 8.0 * PI + 0.5 * ci.i_deficit + tol
        assert ci.i_align <= 0.25 * ci.i_deficit + tol
        assert ci.i_mass <= ci.i_deficit + tol
        # and the floor: csc^2 weight dominates the round count
        assert ci.i_csc2 >= 8.0 * PI - tol


class TestWeightedMedian:
    def test_simple_case(self):
        v = np.array([1.0, 2.0, 3.0, 10.0])
        w = np.ones(4)
        got = weighted_median(v, w)
        assert 2.0 <= got <= 3.0

    def test_heavy_weight_wins(self):
        v = np.array([0.0, 5.0, 9.0])
        w = np.array([1.0, 1.0, 10.0])
        assert weighted_median(v, w) == 9.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
           st.lists(st.floats(0.01, 10), min_size=40, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_minimizes_weighted_l1(self, values, weights):
        v = np.asarray(values)
        w = np.asarray(weights[:v.size])
        k = weighted_median(v, w)

        def cost(c):
            return np.sum(w * np.abs(v - c))

        best = min(cost(c) for c in v)  # an optimum is attained at a value
        assert cost(k) <= best + 1e-9 * max(1.0, best)


class TestAlignment:
    def test_round_constants(self, round_metric, round_potential):
        ac = alignment_constants(round_metric, round_potential)
        assert ac.a == pytest.approx(1.0, abs=1e-8)
        assert ac.sigma == pytest.approx(0.0, abs=1e-8)
        assert ac.attained_l1_gap_ratio < 1e-8

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_gaps_nonnegative(self, reference_metrics,
                              reference_potentials, name):
        ac = alignment_constants(reference_metrics[name],
                                 reference_potentials[name])
        assert ac.a >= 0.0
        assert ac.attained_l1_gap_ratio >= 0.0
        assert ac.attained_l1_gap_u >= 0.0


class TestShells:
    def test_round_shell_closed_form(self, round_metric, round_potential):
        s = PI / 8
        got = shell_integral(round_metric, round_potential,
                             np.array([s]))[0]
        assert got == pytest.approx(4.0 * PI * np.sin(s)**3, abs=1e-5)

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_selection_in_stated_band(self, reference_metrics,
                                      reference_potentials, name):
        sel = shell_select(reference_metrics[name],
                           reference_potentials[name])
        assert PI / 8 <= sel.sigma_p <= PI / 4
        assert PI / 8 <= sel.sigma_mp <= PI / 4
        assert sel.shell_integral_p >= 0.0


class TestPolar:
    def test_round_csc3_value(self, round_metric, round_potential):
        p, mp = polar_csc3(round_metric, round_potential, PI / 8)
        # integrand collapses to 4 pi dtheta on the round sphere
        assert p == pytest.approx(PI**2 / 2.0, abs=1e-5)
        assert mp == pytest.approx(PI**2 / 2.0, abs=1e-5)

    def test_csc3_radius_validated(self, round_metric, round_potential):
        with pytest.raises(DomainError):
            polar_csc3(round_metric, round_potential, 1.0)

    def test_polar_average_is_u(self, round_metric, round_potential):
        t = PI / 16
        assert polar_average(round_metric, round_potential, t) == \
            pytest.approx(np.cos(t), abs=1e-9)


class TestSublevel:
    def test_round_annulus_volume(self, round_metric, round_potential):
        # {u <= gamma} within B(p, r): annulus between arccos(gamma) and r
        r, gamma = PI / 8, 0.95
        tg = np.arccos(gamma)
        expected = ((2.0 * PI * r - PI * np.sin(2.0 * r))
                    - (2.0 * PI * tg - PI * np.sin(2.0 * tg)))
        got = sublevel_round_volume(round_metric, round_potential,
                                    +1, r, gamma)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_empty_when_gamma_small(self, round_metric, round_potential):
        # cos(pi/8) ~ 0.924 > 0.5: the sublevel set misses the small cap
        assert sublevel_round_volume(round_metric, round_potential,
                                     +1, PI / 8, 0.0) == 0.0

    def test_poles_mirror(self, round_metric, round_potential):
        a = sublevel_round_volume(round_metric, round_potential,
                                  +1, PI / 8, 0.95)
        b = sublevel_round_volume(round_metric, round_potential,
                                  -1, PI / 8, 0.95)
        assert a == pytest.approx(b, rel=1e-6, abs=1e-9)


class TestGoodSets:
    def test_inclusion_in_tau(self, round_metric, round_potential):
        small = good_set_volumes(round_metric, round_potential, 0.01, 0.1)
        large = good_set_volumes(round_metric, round_potential, 0.1, 0.1)
        assert small.vol_E_g <= large.vol_E_g + 1e-12
        assert small.vol_E_round <= large.vol_E_round + 1e-12

    def test_round_complement_empty(self, round_metric, round_potential):
        gs = good_set_volumes(round_metric, round_potential, 0.1, 0.0)
        assert gs.vol_E_complement_g == pytest.approx(0.0, abs=1e-10)
        assert gs.vol_Etilde_complement_g == pytest.approx(0.0, abs=1e-10)

    def test_domain_validation(self, round_metric, round_potential):
        with pytest.raises(DomainError):
            good_set_volumes(round_metric, round_potential, -0.1, 0.1)
        with pytest.raises(DomainError):
            good_set_volumes(round_metric, round_potential, 0.1, 2.0)


class TestPointPick:
    def test_round_closed_form(self, round_metric):
        r = 0.1
        res = point_pick(round_metric, r)
        expected = 2.0 * (2.0 * PI * r - PI * np.sin(2.0 * r))
        assert res.sum_ball_volumes == pytest.approx(expected, abs=1e-6)
        assert res.certificate_ok

    def test_monotone_in_radius(self, round_metric):
        sums = [point_pick(round_metric, r).sum_ball_volumes
                for r in (0.05, 0.1, 0.2)]
        assert sums[0] < sums[1] < sums[2]

    def test_radius_validated(self, round_metric):
        with pytest.raises(DomainError):
            point_pick(round_metric, 0.0)
        with pytest.raises(DomainError):
            point_pick(round_metric, 0.6)
