"""Curvature functionals, medians, shells and good sets."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpedsphere import (ClassParams, constant_ledger, good_set_volumes,
                          point_pick, round_sphere, scalar_deficit,
                          summarize, weighted_median)
from warpedsphere import (cli, families, functionals, grids, metrics,
                          verification)
from warpedsphere.errors import DomainError, ResidualGuardError
from warpedsphere.functionals import Evaluation, sublevel_round_volume
from warpedsphere.grids import PI

from conftest import ORACLE_CASES, REFERENCE_NAMES


class TestCoreIntegralsRound:
    def test_csc2_is_8pi(self, round_potential):
        ci = Evaluation(round_potential).core
        assert ci.i_csc2 == pytest.approx(8.0 * PI, rel=1e-6)

    def test_alignment_and_mass_vanish(self, round_potential):
        ci = Evaluation(round_potential).core
        assert abs(ci.i_align) < 1e-8
        assert abs(ci.i_mass) < 1e-8
        assert abs(ci.i_deficit) < 1e-6

    def test_gradient_norms(self, round_potential):
        ci = Evaluation(round_potential).core
        # |grad u| = sin: L1 = 8pi/... int |u'| f^2 * 4pi = 4pi * int sin^3
        assert ci.grad_l1 == pytest.approx(16.0 * PI / 3.0, rel=1e-8)
        assert ci.grad_l2 == pytest.approx(np.sqrt(3.0 * PI**2 / 2.0),
                                           rel=1e-8)

    def test_seminorms_vanish(self, round_potential):
        ev = Evaluation(round_potential)
        assert ev.ratio_seminorm < 1e-8
        assert ev.csc_hessian_l1 < 1e-4


class TestGuard:
    def test_corrupted_potential_refused(self, corrupted_potential):
        with pytest.raises(ResidualGuardError):
            Evaluation(corrupted_potential).core

    @pytest.mark.parametrize("evaluate", [
        lambda ev: ev.core, lambda ev: ev.csc_hessian_l1,
        lambda ev: ev.ratio_seminorm, lambda ev: ev.alignment,
        lambda ev: ev.shells, lambda ev: ev.polar_masses[PI / 16],
        lambda ev: ev])
    def test_every_evaluator_refuses(self, corrupted_potential,
                                     evaluate):
        with pytest.raises(ResidualGuardError):
            evaluate(Evaluation(corrupted_potential))


#: verify calls whose grids are built for the call: `--grid-size` for the
#: families whose default grid is shared by the process, and tendril's
#: own grid.  Their counts do not depend on the calls made before them.
FRESH_GRID_VERIFY = [
    ["--family", "round", "--grid-size", "2001"],
    ["--family", "scaled", "--param", "c=1.3", "--grid-size", "2001"],
    ["--family", "bump", "--param", "eta=0.5", "--grid-size", "2001"],
    ["--family", "tendril", "--param", "length=1.5"],
    ["--family", "bubble", "--param", "area_radius=2",
     "--param", "neck_theta=0.05", "--grid-size", "2001"]]


class TestEvaluation:
    """One Evaluation per (metric, potential): guard once, values equal to
    those of a fresh evaluation per attribute, each computed once."""

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_attributes_match_fresh_evaluations(self, reference_metrics,
                                                reference_potentials, name):
        metric, pot = reference_metrics[name], reference_potentials[name]
        ev = Evaluation(pot)

        def fresh():
            return Evaluation(pot)

        assert ev.core == fresh().core
        assert ev.csc_hessian_l1 == fresh().csc_hessian_l1
        assert ev.ratio_seminorm == fresh().ratio_seminorm
        assert ev.alignment == fresh().alignment
        assert ev.shells == fresh().shells
        assert ev.polar_masses[PI / 8] == fresh().polar_masses[PI / 8]
        assert ev.m == scalar_deficit(metric)

    def test_guard_and_fields_once(self, reference_potentials, monkeypatch):
        calls = {"flux_residual": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(functionals, "flux_residual",
                            counted("flux_residual",
                                    functionals.flux_residual))
        ev = Evaluation(reference_potentials["bump"])
        fields = ev.fields
        for _ in range(2):
            ev.core, ev.csc_hessian_l1, ev.ratio_seminorm
        assert calls == {"flux_residual": 1}
        assert ev.fields is fields

    @pytest.mark.parametrize("argv", FRESH_GRID_VERIFY)
    def test_verify_evaluates_profiles_once_per_node_set(self, argv,
                                                         monkeypatch,
                                                         capsys):
        """One verify call on a fresh grid evaluates the profile jet
        exactly once on the grid nodes (the build's own samples included)
        and once on the refined nodes, and refines the grid once.  The
        polar masses add one order-0 evaluation on the concatenated pole
        sub-grids and one order-2 evaluation on their pole nodes, and
        nothing else."""
        built, node_sets, refined = [], [], []
        build = metrics.WarpedMetric.from_profiles
        refine = grids.refine_nodes

        def counting_refine(*args):
            refined.append(1)
            return refine(*args)

        def counting_build(cls, grid, profiles, name, params):
            def counted(t, sin, cos, order=2):
                node_sets.append((order, np.array(t)))
                return profiles(t, sin, cos, order)

            built.append(build(grid, counted, name, params))
            return built[-1]

        monkeypatch.setattr(metrics.WarpedMetric, "from_profiles",
                            classmethod(counting_build))
        monkeypatch.setattr(grids, "refine_nodes", counting_refine)
        assert cli.main(["verify", *argv]) in (0, 1)
        capsys.readouterr()
        (metric,) = built

        def evaluations(nodes, order=2):
            return sum(o == order and t.shape == nodes.shape
                       and np.array_equal(t, nodes) for o, t in node_sets)

        polar = functionals._polar_grids()
        assert evaluations(metric.theta) == 1   # the build's samples
        assert evaluations(metric.on_fine.t) == 1    # the solve reads it
        assert evaluations(polar.nodes, 0) == 1
        assert evaluations(polar.nodes[polar.poles]) == 1
        assert len(node_sets) == 4
        assert len(refined) == 1

    @pytest.mark.parametrize("argv", [
        ["sequence", "--family", "bump", "--count", "2"],
        ["sequence", "--family", "tendril", "--count", "2"],
        ["sequence", "--family", "bubble", "--count", "2"],
        ["analyze", "--family", "round"],
        ["analyze", "--family", "tendril", "--param", "length=1.5"],
        ["analyze", "--family", "bump", "--param", "eta=0.5",
         "--grid-size", "1000"],
        ["pointpick", "--family", "bubble", "--param", "area_radius=2",
         "--param", "neck_theta=0.05"]])
    def test_summaries_evaluate_refined_nodes_at_order_zero(self, argv,
                                                            monkeypatch,
                                                            capsys):
        """A command that reads only geometry summaries evaluates phi and
        f alone on each metric's refined nodes, once, and no derivative
        there; the grid nodes keep the build's one order-2 jet."""
        built = []
        build = metrics.WarpedMetric.from_profiles

        def counting_build(cls, grid, profiles, name, params):
            calls = []

            def counted(t, sin, cos, order=2):
                calls.append((order, np.array(t)))
                return profiles(t, sin, cos, order)

            built.append((build(grid, counted, name, params), calls))
            return built[-1][0]

        monkeypatch.setattr(metrics.WarpedMetric, "from_profiles",
                            classmethod(counting_build))
        assert cli.main(argv) in (0, 1)
        capsys.readouterr()
        assert built
        for metric, calls in built:
            def orders(nodes):
                return [o for o, t in calls if t.shape == nodes.shape
                        and np.array_equal(t, nodes)]

            assert orders(metric.on_fine.t) == [0]
            assert orders(metric.theta) == [2]

    @pytest.mark.parametrize("argv", FRESH_GRID_VERIFY + [
        ["--family", "bump", "--param", "eta=2", "--grid-size", "1000"]])
    def test_verify_builds_rules_once_per_node_set(self, argv, monkeypatch,
                                                    capsys):
        """One verify call on a fresh grid builds exactly one Simpson rule
        and one cumulative rule on the grid nodes and on the refined
        nodes."""
        built, rules = [], []
        build = metrics.WarpedMetric.from_profiles

        def capturing_build(cls, *args):
            built.append(build(*args))
            return built[-1]

        def counting(kind, make_rule):
            def wrapper(x):
                rules.append((kind, np.array(x)))
                return make_rule(x)
            return wrapper

        monkeypatch.setattr(metrics.WarpedMetric, "from_profiles",
                            classmethod(capturing_build))
        for kind in ("simpson_rule", "cumulative_rule"):
            wrapper = counting(kind, getattr(grids, kind))
            for module in (grids, metrics, families):
                if hasattr(module, kind):
                    monkeypatch.setattr(module, kind, wrapper)
        assert cli.main(["verify", *argv]) in (0, 1)
        capsys.readouterr()
        (metric,) = built
        for nodes in (metric.theta, metric.on_fine.t):
            kinds = sorted(kind for kind, x in rules
                           if x.shape == nodes.shape
                           and np.array_equal(x, nodes))
            assert kinds == ["cumulative_rule", "simpson_rule"]

    @pytest.mark.parametrize("argv", [
        FRESH_GRID_VERIFY[0], FRESH_GRID_VERIFY[2], FRESH_GRID_VERIFY[3]])
    def test_verify_builds_trapezoid_weights_once(self, argv, monkeypatch,
                                                  capsys):
        """The set measures and the alignment constants of one verify call
        on a fresh grid read one set of trapezoid weights, cached on the
        grid."""
        calls = []
        weights = grids.node_weights

        def counting(x):
            calls.append(1)
            return weights(x)

        for module in (grids, metrics, functionals):
            if hasattr(module, "node_weights"):
                monkeypatch.setattr(module, "node_weights", counting)
        assert cli.main(["verify", *argv]) in (0, 1)
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["--family", "round"], ["--family", "scaled", "--param", "c=1.3"],
        ["--family", "bump", "--param", "eta=0.5"],
        ["--family", "tendril", "--param", "length=1.5"],
        ["--family", "bubble", "--param", "area_radius=2",
         "--param", "neck_theta=0.05"],
        ["--family", "bump", "--param", "eta=2", "--grid-size", "1000"]])
    def test_verify_takes_trig_once_per_node_set(self, argv, monkeypatch,
                                                  capsys):
        """Outside the families' profile jets, one verify call runs np.sin
        and np.cos each at most once on the grid nodes and at most once
        on the refined nodes; every other reader slices those."""
        built, calls = [], []
        build = metrics.WarpedMetric.from_profiles

        def capturing_build(cls, *args):
            built.append(build(*args))
            return built[-1]

        def counting(name, fn):
            def wrapper(x, *args, **kwargs):
                caller = sys._getframe(1).f_globals.get("__name__")
                if caller != families.__name__ and isinstance(x, np.ndarray):
                    calls.append((name, np.array(x)))
                return fn(x, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(metrics.WarpedMetric, "from_profiles",
                            classmethod(capturing_build))
        for name in ("sin", "cos"):
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        assert cli.main(["verify", *argv]) in (0, 1)
        capsys.readouterr()
        (metric,) = built
        for name in ("sin", "cos"):
            on_grid = on_fine = 0
            for fn, x in calls:
                if fn != name:
                    continue
                if np.isin(x, metric.theta).all():     # grid nodes or a part
                    on_grid += 1
                elif np.isin(x, metric.on_fine.t).all():
                    on_fine += 1
            assert on_grid <= 1 and on_fine <= 1, (name, on_grid, on_fine)


class TestIdentityChain:
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_flux_inequalities_hold(self, reference_potentials, name):
        ci = Evaluation(reference_potentials[name]).core
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
    def test_round_constants(self, round_potential):
        ac = Evaluation(round_potential).alignment
        assert ac.a == pytest.approx(1.0, abs=1e-8)
        assert ac.sigma == pytest.approx(0.0, abs=1e-8)
        assert ac.attained_l1_gap_ratio < 1e-8

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_gaps_nonnegative(self, reference_potentials, name):
        ac = Evaluation(reference_potentials[name]).alignment
        assert ac.a >= 0.0
        assert ac.attained_l1_gap_ratio >= 0.0
        assert ac.attained_l1_gap_u >= 0.0


class TestShells:
    def test_round_shell_closed_form(self, round_potential):
        sel = Evaluation(round_potential).shells
        expected = 4.0 * PI * np.sin(sel.sigma_p)**3
        assert sel.shell_integral_p == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_selection_equals_oracle(self, oracle_solutions, case):
        """The shells read the cached node jet; the values equal those of
        evaluating the profiles again and interpolating u' at the nodes."""
        pot = oracle_solutions(case)
        t = pot.theta

        def shell_integral(s):
            phi, f = pot.metric.jet(s, 0)
            du = np.interp(s, t, pot.du)
            return 4.0 * PI * np.abs(du) / phi * f**2

        near = t[(t >= PI / 8) & (t <= PI / 4)]
        far = t[(t >= PI - PI / 4) & (t <= PI - PI / 8)]
        vals_p, vals_m = shell_integral(near), shell_integral(far)
        i_p, i_m = int(np.argmin(vals_p)), int(np.argmin(vals_m))
        # unguarded, so that the coarse bvp potentials the guard refuses
        # are compared too
        ev = Evaluation.__new__(Evaluation)
        ev.metric, ev.pot = pot.metric, pot
        assert ev.shells == functionals.ShellSelection(
            sigma_p=float(near[i_p]), sigma_mp=float(PI - far[i_m]),
            shell_integral_p=float(vals_p[i_p]),
            shell_integral_mp=float(vals_m[i_m]))

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_selection_in_stated_band(self, reference_potentials, name):
        sel = Evaluation(reference_potentials[name]).shells
        assert PI / 8 <= sel.sigma_p <= PI / 4
        assert PI / 8 <= sel.sigma_mp <= PI / 4
        assert sel.shell_integral_p >= 0.0


class TestPolar:
    def test_round_csc3_value(self, round_potential):
        p, mp = Evaluation(round_potential).polar_masses[PI / 8]
        # integrand collapses to 4 pi dtheta on the round sphere
        assert p == pytest.approx(PI**2 / 2.0, abs=1e-5)
        assert mp == pytest.approx(PI**2 / 2.0, abs=1e-5)

    def test_polar_average_is_u(self, round_potential):
        ledger = constant_ledger(ClassParams(40.0, 10.0, 1.0, 1.0))
        checks = verification.run_all_checks(round_potential, ledger,
                                             suites=("polar",))
        averages = {c.inputs["t"]: c.inputs["average"] for c in checks
                    if c.label.startswith("lemma_4_3_p_")}
        assert len(averages) == 3
        # the average is u(t), read off the nodes linearly; PI/16 is a node
        theta = round_potential.theta
        for t, average in averages.items():
            assert average == pytest.approx(
                np.interp(t, theta, np.cos(theta)), abs=1e-9)
        assert averages[PI / 16] == pytest.approx(np.cos(PI / 16), abs=1e-9)


class TestSublevel:
    def test_round_annulus_volume(self, round_potential):
        # {u <= gamma} within B(p, r): annulus between arccos(gamma) and r
        r, gamma = PI / 8, 0.95
        tg = np.arccos(gamma)
        expected = ((2.0 * PI * r - PI * np.sin(2.0 * r))
                    - (2.0 * PI * tg - PI * np.sin(2.0 * tg)))
        got = sublevel_round_volume(round_potential,
                                    +1, r, gamma)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_empty_when_gamma_small(self, round_potential):
        # cos(pi/8) ~ 0.924 > 0.5: the sublevel set misses the small cap
        assert sublevel_round_volume(round_potential,
                                     +1, PI / 8, 0.0) == 0.0

    def test_poles_mirror(self, round_potential):
        a = sublevel_round_volume(round_potential,
                                  +1, PI / 8, 0.95)
        b = sublevel_round_volume(round_potential,
                                  -1, PI / 8, 0.95)
        assert a == pytest.approx(b, rel=1e-6, abs=1e-9)


class TestGoodSets:
    def test_inclusion_in_tau(self, round_potential):
        ac = Evaluation(round_potential).alignment
        small = good_set_volumes(round_potential, 0.01, 0.1, ac)
        large = good_set_volumes(round_potential, 0.1, 0.1, ac)
        assert small.vol_E_g <= large.vol_E_g + 1e-12
        assert small.vol_E_round <= large.vol_E_round + 1e-12

    def test_domain_validation(self, round_potential):
        ac = Evaluation(round_potential).alignment
        with pytest.raises(DomainError):
            good_set_volumes(round_potential, -0.1, 0.1, ac)
        with pytest.raises(DomainError):
            good_set_volumes(round_potential, 0.1, 2.0, ac)


class TestPointPick:
    @pytest.fixture
    def round_summary(self, round_metric):
        return summarize(round_metric, ClassParams(40.0, 10.0, 1.0, 1.0))[0]

    def test_round_closed_form(self, round_metric, round_summary):
        r = 0.1
        res = point_pick(round_metric, r, round_summary)
        expected = 2.0 * (2.0 * PI * r - PI * np.sin(2.0 * r))
        assert res.sum_ball_volumes == pytest.approx(expected, abs=1e-6)
        assert res.certificate_ok
        assert res.radius == r
        assert res.certificate_rhs == 1e12 * r**3 * round_summary.volume

    def test_monotone_in_radius(self, round_metric, round_summary):
        sums = [point_pick(round_metric, r, round_summary).sum_ball_volumes
                for r in (0.05, 0.1, 0.2)]
        assert sums[0] < sums[1] < sums[2]

    def test_radius_validated(self, round_metric, round_summary):
        with pytest.raises(DomainError):
            point_pick(round_metric, 0.0, round_summary)
        with pytest.raises(DomainError):
            point_pick(round_metric, 0.6, round_summary)
