"""Meridian arclength and certified diameter brackets."""

import numpy as np
import pytest

from warpedsphere import (RadialGrid, WarpedMetric, bubble_sphere,
                          bump_sphere, diameter_bounds, make,
                          meridian_arclength, round_sphere, scaled_sphere,
                          tendril_sphere)
from warpedsphere.families import schedule
from warpedsphere.grids import PI

from conftest import REFERENCE_NAMES


def _route_scan(metric, n_sample=512, n_routes=512):
    """Brute-force oracle: the diameter bracket by a scan over every
    route for every pair of samples, one route at a time."""
    L_nodes, L_tot = meridian_arclength(metric)
    t = metric.theta
    targets = np.linspace(0.0, L_tot, n_sample)
    theta_s = np.interp(targets, L_nodes, t)
    La = np.interp(theta_s, t, L_nodes)

    route_theta = np.interp(np.linspace(0.0, L_tot, n_routes), L_nodes, t)
    Lk = np.interp(route_theta, t, L_nodes)
    fk = metric.jet(route_theta, 0)[1]

    best = La[:, None] + La[None, :]                     # via pole 0
    np.minimum(best, 2.0 * L_tot - best, out=best)       # via pole pi
    da = np.abs(La[:, None] - Lk[None, :])               # (n_sample, n_routes)
    for k in range(n_routes):
        route = da[:, k][:, None] + da[:, k][None, :] + PI * fk[k]
        np.minimum(best, route, out=best)

    gap = L_tot / (n_sample - 1)
    upper = float(best.max()) + gap
    lower = L_tot
    return lower, max(upper, lower)


def _assert_matches_scan(metric, n_sample=512, n_routes=512):
    lo, hi = diameter_bounds(metric, n_sample)
    lo_ref, hi_ref = _route_scan(metric, n_sample, n_routes)
    # certified values: equal bit for bit, not approximately
    assert lo == lo_ref
    assert hi == hi_ref
    # with f >= 0 the scan's maximum is the meridian length itself
    assert hi == lo + lo / (n_sample - 1)


class TestMeridian:
    def test_round_arclength_is_theta(self):
        m = round_sphere()
        vals, total = meridian_arclength(m)
        assert total == pytest.approx(PI, abs=1e-10)
        assert np.max(np.abs(vals - m.theta)) < 1e-10

    def test_scaled_arclength(self):
        _, total = meridian_arclength(scaled_sphere(1.3))
        assert total == pytest.approx(1.3 * PI, abs=1e-9)

    def test_tendril_pole_distance_exceeds_pi_plus_length(self):
        # int (phi - 1) dtheta is normalized to the requested length
        _, total = meridian_arclength(tendril_sphere(2.0, 0.1, 0.3))
        assert total == pytest.approx(PI + 2.0, abs=1e-6)


class TestDiameterBounds:
    def test_round_bracket_tight(self):
        lo, hi = diameter_bounds(round_sphere())
        assert lo == pytest.approx(PI, abs=1e-9)
        assert hi >= lo
        assert hi - lo < 1e-2

    @pytest.mark.parametrize("c", [1.1, 1.5])
    def test_scaled_bracket(self, c):
        lo, hi = diameter_bounds(scaled_sphere(c))
        assert lo == pytest.approx(c * PI, abs=1e-8)
        assert hi - lo < c * 1e-2

    def test_bracket_ordered_on_references(self, reference_metrics):
        for metric in reference_metrics.values():
            lo, hi = diameter_bounds(metric)
            assert lo <= hi


class TestBracketMatchesRouteScan:
    """The bracket from the meridian length against the route scan, bit
    for bit.  The scan costs n_sample^2 n_routes, about 0.8 s at the
    default 512 x 512, so the schedule and grid sweeps run at 256 x 256."""

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_reference_families(self, reference_metrics, name):
        _assert_matches_scan(reference_metrics[name])

    @pytest.mark.parametrize("family", ["bump", "tendril", "bubble"])
    def test_dyadic_schedules(self, family):
        for params in schedule(family, 6):
            _assert_matches_scan(make(family, **params), 256, 256)

    @pytest.mark.parametrize("n, spacing, build", [
        (1001, "uniform", lambda g: bump_sphere(0.25, grid=g)),
        (1001, "graded", lambda g: tendril_sphere(1.0, 0.125, grid=g)),
        (2001, "uniform", lambda g: tendril_sphere(1.0, 0.125, grid=g)),
        (2001, "graded", lambda g: bubble_sphere(3.0, 0.05, grid=g)),
        (4001, "uniform", lambda g: bubble_sphere(3.0, 0.05, grid=g)),
        (4001, "graded", lambda g: bump_sphere(0.25, grid=g)),
    ])
    def test_grids(self, n, spacing, build):
        _assert_matches_scan(build(getattr(RadialGrid, spacing)(n)), 256, 256)

    @pytest.mark.parametrize("build", [
        lambda: round_sphere(grid=RadialGrid.graded(1001)),
        lambda: scaled_sphere(1.5),
        lambda: scaled_sphere(2.65, grid=RadialGrid.graded(1001)),
    ], ids=["round-graded", "scaled-1.5", "scaled-2.65-graded"])
    def test_spheres_with_many_ties(self, build):
        # every pair near the antipodal diagonal ties with many others
        _assert_matches_scan(build())

    @pytest.mark.parametrize("build, f_poles, sizes", [
        (round_sphere, (-1e-13, -1e-13), (512, 512)),
        (lambda: bump_sphere(0.25), (-1e-14, 0.0), (512, 512)),
        (lambda: scaled_sphere(1.5), (-7e-14, 5e-14), (64, 128)),
        (lambda: bubble_sphere(2.0, 0.1), (-1e-13, -1e-13), (64, 128)),
        (lambda: bump_sphere(0.1, grid=RadialGrid.graded(1001)),
         (-7e-14, 5e-14), (64, 128)),
    ], ids=["round", "bump", "scaled", "bubble", "bump-graded"])
    def test_routes_set_the_maximum(self, build, f_poles, sizes):
        # With f >= 0 the pole pair costs exactly L_tot, which bounds
        # every pair, so the route costs never set the maximum.  A
        # sampled f slightly below 0 at a pole, as WarpedMetric admits
        # (|f| <= 1e-13 there), makes the oracle's route through that
        # pole cheaper: it charges pi f for half a parallel whose length
        # is pi |f|, so its maximum can fall below L_tot.  The bracket
        # from the meridian length does not read f, and its upper end
        # stays a certified bound at least as large as the oracle's.
        metric = build()
        f = metric.f.copy()
        f[0], f[-1] = f_poles
        tilted = WarpedMetric(grid=metric.grid, phi=metric.phi, f=f)
        _, total = meridian_arclength(tilted)
        lo, hi = diameter_bounds(tilted, sizes[0])
        lo_ref, hi_ref = _route_scan(tilted, *sizes)
        assert lo == lo_ref == total
        assert hi >= hi_ref
        assert hi == total + total / (sizes[0] - 1)

    @pytest.mark.parametrize("sizes", [(33, 64), (512, 128), (64, 512),
                                       (2, 2), (100, 1)])
    def test_sample_and_route_counts(self, sizes):
        _assert_matches_scan(round_sphere(), *sizes)
        _assert_matches_scan(bubble_sphere(2.0, 0.1), *sizes)
        _assert_matches_scan(tendril_sphere(2.0, 0.1, 0.3), *sizes)
