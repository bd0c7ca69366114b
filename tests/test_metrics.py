"""Metric construction, curvature, volume, Cheeger and membership."""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from warpedsphere import (ClassParams, RadialGrid, WarpedMetric,
                          ball_volume, bubble_sphere, bump_sphere,
                          cheeger_levelset, class_membership,
                          load_profile_table, round_sphere,
                          scalar_curvature, scalar_deficit, scaled_sphere,
                          summarize, validate, volume)
from warpedsphere.errors import DegenerateMetricError, StructuralError
from warpedsphere.grids import PI, refine_nodes

from conftest import REFERENCE_BUILDERS, write_profile_table

ROUND_VOLUME = 2.0 * PI**2


def _symbolic_scalar_curvature(phi_expr, f_expr, theta_sym):
    """Scalar curvature of phi^2 dtheta^2 + f^2 (dalpha^2 + sin^2 dbeta^2).

    Independent oracle: Christoffel symbols -> Ricci -> trace, computed
    symbolically from the 3x3 coordinate metric.
    """
    import sympy as sp

    alpha = sp.symbols("alpha")
    x = [theta_sym, alpha, sp.symbols("beta")]
    g = sp.diag(phi_expr**2, f_expr**2, f_expr**2 * sp.sin(alpha)**2)
    ginv = g.inv()
    n = 3
    gamma = [[[sum(ginv[k, m] * (sp.diff(g[m, i], x[j])
                                 + sp.diff(g[m, j], x[i])
                                 - sp.diff(g[i, j], x[m])) / 2
                   for m in range(n))
               for j in range(n)] for i in range(n)] for k in range(n)]
    ricci = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            ricci[i, j] = sum(sp.diff(gamma[k][i][j], x[k])
                              - sp.diff(gamma[k][i][k], x[j])
                              + sum(gamma[k][k][m] * gamma[m][i][j]
                                    - gamma[k][j][m] * gamma[m][i][k]
                                    for m in range(n))
                              for k in range(n))
    scalar = sum(ginv[i, j] * ricci[i, j] for i in range(n)
                 for j in range(n))
    # no simplify: lambdify handles the raw expression and is far faster
    return scalar.subs(alpha, sp.pi / 3)


def test_scalar_curvature_matches_symbolic_oracle():
    # nontrivial closed profile: phi = 1 + a sin^2, f = sin * (1 + a sin^2)
    import sympy as sp

    a = 0.3
    th = sp.symbols("theta", positive=True)
    phi_e = 1 + a * sp.sin(th)**2
    f_e = sp.sin(th) * (1 + a * sp.sin(th)**2)
    r_e = _symbolic_scalar_curvature(phi_e, f_e, th)
    r_fn = sp.lambdify(th, r_e, "numpy")

    def poly(c):
        return sp.lambdify(th, c, "numpy")

    fns = [poly(e) for e in (phi_e, f_e, sp.diff(phi_e, th),
                             sp.diff(f_e, th), sp.diff(phi_e, th, 2),
                             sp.diff(f_e, th, 2))]

    def profiles(t, order=2):
        return tuple(fn(t) for fn in fns[:6 if order else 2])

    grid = RadialGrid.uniform(801)
    phi, f = profiles(grid.nodes, 0)
    metric = WarpedMetric(grid=grid, phi=phi, f=f, name="oracle",
                          profiles=profiles)
    t = grid.nodes
    r_num = scalar_curvature(metric.on_grid)
    sample = slice(3, -3)  # symbolic expression is 0/0 at the poles
    assert np.max(np.abs(r_num[sample] - r_fn(t[sample]))) < 1e-9


@pytest.mark.parametrize("c, expected", [(1.0, 6.0), (1.1, 6.0 / 1.21),
                                         (2.0, 1.5)])
def test_scaled_sphere_curvature_constant(c, expected):
    metric = scaled_sphere(c) if c != 1.0 else round_sphere()
    r = scalar_curvature(metric.on_grid)
    assert np.max(np.abs(r - expected)) < 1e-9


def test_round_deficit_negligible():
    # m = ||(6-R)^+||^(1/2): pole round-off in R enters at the 1/4 power
    assert scalar_deficit(round_sphere()) < 1e-6


def _pole_fit_oracle(t, r):
    """The two pole values by `np.polyfit`, the least-squares parabola
    through the three nearest interior samples."""
    return np.array([np.polyval(np.polyfit(t[sl] - t[pole], r[sl], 2), 0.0)
                     for pole, sl in ((0, slice(1, 4)),
                                      (-1, slice(-4, -1)))])


class TestPoleValues:
    """The closed-form pole fill of `scalar_curvature` gives the values of
    `np.polyfit`'s fit."""

    @pytest.mark.parametrize("grid", ["uniform-2001", "default"])
    @pytest.mark.parametrize("nodes", ["on_grid", "on_fine"])
    @pytest.mark.parametrize("name", list(REFERENCE_BUILDERS))
    def test_match_the_least_squares_fit(self, name, nodes, grid):
        metric = REFERENCE_BUILDERS[name](
            RadialGrid.uniform(2001) if grid == "uniform-2001" else None)
        ns = getattr(metric, nodes)
        r = scalar_curvature(ns)
        np.testing.assert_allclose(r[[0, -1]], _pole_fit_oracle(ns.t, r),
                                   rtol=1e-12, atol=0.0)

    def test_non_finite_sample_gives_nan(self):
        """As with the fit, a pole next to a sample that is not finite is
        nan, never an infinity that the deficit's clip would turn to 0."""
        t = np.linspace(0.0, PI, 11)
        f = np.sin(t)
        f[2] = 0.0                      # R there is 0/0 or x/0
        jet = (np.ones_like(t), f, np.zeros_like(t), np.cos(t),
               np.zeros_like(t), -np.sin(t))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = scalar_curvature(SimpleNamespace(t=t, jet=jet))
            expected = _pole_fit_oracle(t, r)
        assert not np.isfinite(r[2])
        assert np.isnan(r[0]) and np.isnan(expected[0])
        assert r[-1] == pytest.approx(expected[-1], rel=1e-12)


class TestConstruction:
    def test_samples_must_match_grid(self):
        grid = RadialGrid.uniform(65)
        with pytest.raises(StructuralError):
            WarpedMetric(grid=grid, phi=np.ones(64), f=np.sin(grid.nodes))

    def test_phi_must_be_positive(self):
        grid = RadialGrid.uniform(65)
        phi = np.ones(65)
        phi[30] = 0.0
        with pytest.raises(DegenerateMetricError):
            WarpedMetric(grid=grid, phi=phi, f=np.sin(grid.nodes))

    def test_f_must_close_at_poles(self):
        grid = RadialGrid.uniform(65)
        with pytest.raises(DegenerateMetricError):
            WarpedMetric(grid=grid, phi=np.ones(65),
                         f=np.sin(grid.nodes) + 0.1)


class TestValidation:
    def test_round_sphere_validates(self):
        rep = validate(round_sphere())
        assert rep.ok
        assert rep.closure_defect < 1e-10

    def test_comparison_failure_detected(self):
        grid = RadialGrid.uniform(201)
        t = grid.nodes
        metric = WarpedMetric(grid=grid, phi=np.ones(201),
                              f=0.9 * np.sin(t))  # f < sin
        rep = validate(metric)
        assert not rep.comparison_ok
        assert not rep.ok

    @pytest.mark.parametrize("name", ["round", "scaled", "bump",
                                      "tendril", "bubble"])
    def test_references_validate(self, reference_metrics, name):
        assert validate(reference_metrics[name]).ok


class TestVolume:
    def test_round_volume(self):
        assert volume(round_sphere()) == pytest.approx(ROUND_VOLUME,
                                                       rel=1e-10)

    def test_scaled_volume(self):
        # phi = c, f = c sin: volume scales by c^3
        assert volume(scaled_sphere(1.1)) == pytest.approx(
            1.1**3 * ROUND_VOLUME, rel=1e-10)


class TestCheeger:
    def test_round_levelset_value(self):
        value, arg = cheeger_levelset(round_sphere())
        # equatorial sphere: 4 pi / pi^2 = 4 / pi
        assert value == pytest.approx(4.0 / PI, abs=1e-4)
        assert arg == pytest.approx(PI / 2, abs=1e-2)

    def test_bubble_neck_shrinks_constant(self):
        values = [cheeger_levelset(bubble_sphere(float(a), 0.05))[0]
                  for a in (1, 2, 3)]
        assert values[0] > values[1] > values[2]


class TestBallVolume:
    @pytest.mark.parametrize("r", [0.05, 0.1, 0.3, 1.0])
    def test_round_polar_cap_closed_form(self, r):
        # cap about the pole: 2 pi r - pi sin 2r
        expected = 2.0 * PI * r - PI * np.sin(2.0 * r)
        got = ball_volume(round_sphere(), 0.0, r)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_round_center_independent(self):
        m = round_sphere()
        v_pole = ball_volume(m, 0.0, 0.2)
        v_mid = ball_volume(m, 1.1, 0.2)
        assert v_mid == pytest.approx(v_pole, rel=1e-7)

    def test_zero_radius(self):
        assert ball_volume(round_sphere(), 1.0, 0.0) == 0.0

    def test_bad_center_rejected(self):
        with pytest.raises(StructuralError):
            ball_volume(round_sphere(), -0.5, 0.1)


class TestProfileTable:
    def test_round_trip(self, tmp_path):
        metric = bump_sphere(0.25)
        path = tmp_path / "bump.csv"
        write_profile_table(metric, path)
        loaded = load_profile_table(path)
        assert loaded.grid.n == metric.grid.n
        assert np.allclose(loaded.phi, metric.phi, atol=1e-15)
        assert np.allclose(loaded.f, metric.f, atol=1e-15)
        assert loaded.profiles is None  # tables carry samples only
        # derived quantities survive the round trip
        assert volume(loaded) == pytest.approx(volume(metric), rel=1e-8)


class TestJet:
    """`WarpedMetric.jet` and the jets cached on the grid nodes and on the
    refined nodes."""

    @pytest.fixture
    def table(self, tmp_path):
        path = tmp_path / "bump.txt"
        write_profile_table(bump_sphere(0.5, grid=RadialGrid.graded(1001)),
                            path)
        return load_profile_table(path)

    def test_table_order_zero_is_the_leading_pair(self, table):
        rng = np.random.default_rng(5)
        for t in (table.theta, table.on_fine.t, rng.uniform(0.0, PI, 777)):
            full = table.jet(t)
            assert len(full) == 6
            phi, f = table.jet(t, 0)
            assert np.array_equal(phi, full[0])
            assert np.array_equal(f, full[1])

    def test_table_jet_is_exact_at_the_nodes(self, table):
        t = table.theta
        dphi = np.gradient(table.phi, t, edge_order=2)
        df = np.gradient(table.f, t, edge_order=2)
        expected = (table.phi, table.f, dphi, df,
                    np.gradient(dphi, t, edge_order=2),
                    np.gradient(df, t, edge_order=2))
        for got, want in zip(table.on_grid.jet, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", list(REFERENCE_BUILDERS))
    def test_cached_jets_equal_fresh_ones(self, reference_metrics, name):
        metric = reference_metrics[name]
        assert np.array_equal(metric.on_fine.t, refine_nodes(metric.theta))
        for nodes, t in ((metric.on_grid, metric.theta),
                         (metric.on_fine, metric.on_fine.t)):
            assert nodes.t is t
            assert all(np.array_equal(a, b)
                       for a, b in zip(nodes.jet, metric.jet(t)))
        assert metric.on_grid is metric.on_grid
        assert metric.on_fine is metric.on_fine

    def test_curvature_on_refined_nodes(self, reference_metrics):
        metric = reference_metrics["scaled"]
        r = scalar_curvature(metric.on_fine)
        assert r.shape == metric.on_fine.t.shape
        # the 0/0 terms next to the poles lose more digits on the finer
        # nodes: 1.7e-9 there against 9e-11 on the grid nodes
        assert np.max(np.abs(r - 6.0 / 1.1**2)) < 1e-8


@pytest.mark.parametrize("name", list(REFERENCE_BUILDERS))
def test_metric_is_freed_without_the_cyclic_gc(name):
    """A node set holds its evaluated jet and not its metric, so a dropped
    metric is freed by reference counting alone, cached arrays and all."""
    gc.disable()
    try:
        metric = REFERENCE_BUILDERS[name](RadialGrid.uniform(301))
        for nodes in (metric.on_grid, metric.on_fine):
            for prop in ("t", "jet", "simpson", "cumulative", "trapezoid",
                         "sin", "cos", "fos", "sf"):
                getattr(nodes, prop)
        assert metric.quadrature is metric.on_fine
        ref = weakref.ref(metric)
        del metric, nodes
        assert ref() is None
    finally:
        gc.enable()


class TestAnalyticAgainstTable:
    """An analytic profile and the same profile sampled into a table
    (written as a text table and read by load_profile_table) agree to a tolerance that
    shrinks with h.  The table is integrated on its own nodes where the
    analytic profile is refined four times, so their relative drift in
    volume, diameter_lower and m is the table's discretization error.
    It must fall at least 2.5x per doubling of n from its value at
    n = 1001, or sit below 1e-12.  That is an envelope, not a step
    ratio: the table's volume error on the bubble alternates in sign
    as the nodes cross the neck, so on the graded grid it falls 120x
    from n = 1001 to 2001 and only 1.3x from 2001 to 4001.  The
    surrogate reads the node samples alone, so it matches exactly."""

    FIELDS = ("volume", "diameter_lower", "mass")

    @pytest.mark.parametrize("spacing", ["uniform", "graded"])
    @pytest.mark.parametrize("family", ["bump", "bubble"])
    def test_drift_shrinks_with_h(self, tmp_path, family, spacing):
        drifts = []
        for n in (1001, 2001, 4001):
            metric = REFERENCE_BUILDERS[family](
                getattr(RadialGrid, spacing)(n))
            path = tmp_path / f"{family}-{n}.txt"
            write_profile_table(metric, path)
            exact, table = summarize(metric), summarize(
                load_profile_table(path))
            assert table.cheeger_surrogate == exact.cheeger_surrogate
            drifts.append([abs(getattr(table, k) / getattr(exact, k) - 1.0)
                           for k in self.FIELDS])
        for doublings, drift in enumerate(drifts[1:], start=1):
            for first, now in zip(drifts[0], drift):
                assert now < 1e-12 or now <= first / 2.5**doublings


class TestMembership:
    def test_round_admitted(self):
        rep = class_membership(summarize(round_sphere()),
                               ClassParams(40.0, 10.0, 1.0, 1.0))
        assert rep.admitted
        assert rep.comparison_ok
        assert not rep.cheeger_fails

    def test_mass_cap_enforced(self):
        rep = class_membership(summarize(bump_sphere(1.0)),
                               ClassParams(40.0, 10.0, 0.1, 1.0))
        assert not rep.mass_ok
        assert not rep.admitted

    def test_bubble_fails_cheeger(self):
        rep = class_membership(summarize(bubble_sphere(2.0, 0.05)),
                               ClassParams(40.0, 10.0, 1e6, 1.0))
        assert rep.cheeger_fails
        assert not rep.admitted

    def test_admitted_is_the_conjunction_of_flags(self, reference_metrics):
        params = ClassParams(40.0, 10.0, 1.0, 1.0)
        metrics = list(reference_metrics.values()) + [
            bubble_sphere(2.0, 0.05), scaled_sphere(2.65)]
        verdicts = []
        for metric in metrics:
            rep = class_membership(summarize(metric), params)
            assert rep.admitted == (rep.comparison_ok and rep.volume_ok
                                    and rep.diameter_ok and rep.mass_ok
                                    and not rep.cheeger_fails)
            verdicts.append(rep.admitted)
        assert not verdicts[-2] and not verdicts[-1]

    def test_summary_fields_finite(self, reference_metrics):
        for metric in reference_metrics.values():
            s = summarize(metric)
            assert np.isfinite(s.volume) and s.volume > 0
            assert s.diameter_upper >= s.diameter_lower > 0
            assert np.isfinite(s.mass) and s.mass >= 0
            assert s.cheeger_surrogate > 0
