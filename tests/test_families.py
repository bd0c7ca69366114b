"""Reference metric families: admissibility, limits, normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import warpedsphere.families as fam
from warpedsphere import (RadialGrid, bubble_sphere, bump_sphere, make,
                          round_sphere, scalar_deficit, scaled_sphere,
                          tendril_sphere, validate, volume)
from warpedsphere.distance import meridian_arclength
from warpedsphere.errors import (ConstructionError, DegenerateMetricError,
                                 DomainError)
from warpedsphere.families import BUMP_PEAK, FAMILIES, FAMILY_CATALOG
from warpedsphere.grids import PI, simpson_rule
from warpedsphere.potential import _derivative_high_order

from conftest import REFERENCE_BUILDERS


class TestMake:
    @pytest.mark.parametrize("name, params", [
        ("round", {}),
        ("scaled", {"c": 1.2}),
        ("bump", {"eta": 0.5}),
        ("tendril", {"length": 1.0, "width": 0.1}),
        ("bubble", {"area_radius": 2.0, "neck_theta": 0.1}),
    ])
    def test_dispatch_and_validate(self, name, params):
        metric = make(name, **params)
        assert metric.name == name
        assert validate(metric).ok

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            make("torus")

    def test_catalog_covers_families(self):
        assert set(FAMILY_CATALOG) == set(FAMILIES)
        for name, catalog in FAMILY_CATALOG.items():
            for pname, (default, admissible, meaning) in catalog.items():
                assert isinstance(admissible, str) and admissible
                assert isinstance(meaning, str) and meaning


class TestScaled:
    def test_rejects_shrinking(self):
        with pytest.raises(DomainError):
            scaled_sphere(0.9)

    def test_volume_scales_cubed(self):
        assert volume(scaled_sphere(1.5)) == pytest.approx(
            1.5**3 * 2.0 * PI**2, rel=1e-9)


class TestBump:
    def test_amplitude_bound(self):
        metric = bump_sphere(1.0)
        assert np.max(metric.phi - 1.0) <= BUMP_PEAK + 1e-12

    def test_small_eta_approaches_round(self):
        metric = bump_sphere(1e-3)
        assert np.max(np.abs(metric.f - np.sin(metric.theta))) < 2e-5
        assert scalar_deficit(metric) < 0.05  # m ~ 1.7 eta ** 0.5... no:
        # m = ||(6-R)^+||^(1/2) scales like sqrt(eta)

    def test_deficit_scales_with_eta(self):
        # the deficit norm m**2 is linear in eta, so m halves per square
        ms = [scalar_deficit(bump_sphere(eta)) for eta in (0.4, 0.1)]
        assert ms[1] == pytest.approx(0.5 * ms[0], rel=0.05)

    def test_negative_eta_rejected(self):
        with pytest.raises(DomainError):
            bump_sphere(-0.5)

    def test_support_must_fit(self):
        with pytest.raises(ConstructionError):
            bump_sphere(0.5, theta0=0.1, width=0.6)

    @given(st.floats(1e-4, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_always_admissible(self, eta):
        metric = bump_sphere(eta)
        rep = validate(metric)
        assert rep.ok
        assert np.all(metric.f >= np.sin(metric.theta) - 1e-12)


class TestTendril:
    def test_length_normalization_exact(self):
        for length in (0.5, 1.0, 2.0):
            metric = tendril_sphere(length, 0.1, 0.3)
            _, total = meridian_arclength(metric)
            assert total == pytest.approx(PI + length, abs=1e-6)

    def test_deficit_shrinks_with_width(self):
        ms = [scalar_deficit(tendril_sphere(1.0, 2.0**-i))
              for i in (5, 7, 9)]
        assert ms[0] > ms[1] > ms[2]
        # thin regime: m ~ sqrt(width)
        assert ms[2] < 0.6

    def test_fiber_untouched(self):
        metric = tendril_sphere(1.0, 0.05)
        assert np.max(np.abs(metric.f - np.sin(metric.theta))) < 1e-14

    def test_support_must_fit(self):
        with pytest.raises(ConstructionError):
            tendril_sphere(1.0, 0.1, theta0=0.05)  # theta0 < 1.5 width

    def test_zero_length_is_round(self):
        metric = tendril_sphere(0.0, 0.1, 0.3)
        assert np.max(np.abs(metric.phi - 1.0)) == 0.0

    @given(st.floats(0.01, 0.4), st.floats(0.1, 2.0))
    @settings(max_examples=15, deadline=None)
    def test_always_comparable(self, width, length):
        try:
            metric = tendril_sphere(length, width)
        except ConstructionError:
            return  # layout genuinely does not fit; not a failure
        rep = validate(metric)
        assert rep.ok
        assert np.all(metric.phi >= 1.0 - 1e-12)


def _c_max(length, width, theta0=None):
    """Squash depth of a tendril, from the root finder in `fam._brentq`."""
    _, breaks, thin = fam._tendril_layout(length, width, theta0)
    shape = fam._tendril_shape(breaks, thin)
    return fam._tendril_normalize(length, shape, breaks)


def _outcome(root, *args, **kwargs):
    """The root, or the type of the exception the root finder raised."""
    try:
        return root(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


#: (length, width, theta0): the catalog edges of length and width, and
#: explicit finger positions and long fingers beyond the catalog
TENDRIL_CASES = [(length, width, None)
                 for width in (0.05, 0.07, 0.1, 0.12)
                 for length in (0.0, 1e-12, 1e-6, 0.01, 0.1, 0.25, 0.5,
                                0.75, 1.0, 1.25, 1.5, 1.75, 2.0)] + [
    (1.0, 0.1, 0.3), (2.0, 0.05, 0.5), (0.5, 0.12, 0.19),
    (1e3, 0.1, None), (1e6, 0.05, None)]


class TestBrentqPort:
    """The Brent port returns scipy's `brentq` root bit for bit."""

    def test_tendril_normalization_matches_scipy(self, monkeypatch):
        ours = [_c_max(*case) for case in TENDRIL_CASES]
        assert ours[1] == tendril_sphere(1e-12, 0.05).params["c_max"]
        monkeypatch.setattr(fam, "_brentq", brentq)
        assert [_c_max(*case) for case in TENDRIL_CASES] == ours

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: np.cos(x) - x, 0.0, 1.0),
        (lambda x: np.exp(x) - 1e6, 0.0, 30.0),
        (lambda x: (x - 0.7) ** 5, 0.0, 1.0),
        (lambda x: np.tanh(50.0 * (x - 0.123)), -1.0, 4.0),
        (lambda x: x, -1.0, 0.0),
    ])
    @pytest.mark.parametrize("xtol, rtol", [(2e-12, 8.9e-16),
                                            (1e-15, 8.9e-16), (1e-3, 1e-6)])
    def test_generic_roots_match_scipy(self, f, a, b, xtol, rtol):
        for lo, hi in ((a, b), (b, a)):
            assert (_outcome(fam._brentq, f, lo, hi, xtol=xtol, rtol=rtol)
                    == _outcome(brentq, f, lo, hi, xtol=xtol, rtol=rtol))

    @pytest.mark.parametrize("root", [fam._brentq, brentq])
    def test_failures_raise_like_scipy(self, root):
        assert _outcome(root, lambda x: x * x + 1.0, -1.0, 1.0,
                        xtol=1e-12, rtol=1e-15) == ValueError
        assert _outcome(root, lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-15,
                        rtol=8.9e-16, maxiter=3) == RuntimeError

    def test_unattainable_length_is_construction_error(self):
        with pytest.raises(ConstructionError,
                           match="not attainable") as info:
            tendril_sphere(1e8, 0.1)
        assert info.value.constraint == "length"

    def test_unresolvable_length_is_construction_error(self):
        # excess(c) > 0 already at the lower bracket end: no sign change
        with pytest.raises(ConstructionError, match="too small") as info:
            tendril_sphere(1e-20, 0.1)
        assert info.value.constraint == "length"


def _normalize_oracle(length, shape, breaks):
    """`fam._tendril_normalize` as first written: nodes merged by
    `np.unique`, and a fresh array for every evaluation of the excess."""
    if length == 0.0:
        return 0.0
    segs = [np.linspace(breaks[i], breaks[i + 1], 4001)
            for i in range(len(breaks) - 1)]
    t = np.unique(np.concatenate(segs))
    s, _, _ = shape(t)
    simpson = simpson_rule(t)

    def excess(c_max):
        return simpson((1.0 - c_max * s) ** -0.5 - 1.0) - length

    hi = (1.0 - 1e-15) / float(np.max(s))
    if excess(hi) < 0.0:
        raise ConstructionError(
            "length", "requested tendril length is not attainable")
    try:
        return float(fam._brentq(excess, 1e-15, hi, xtol=1e-15,
                                 rtol=8.9e-16))
    except ValueError:
        raise ConstructionError(
            "length", "requested tendril length is too small to resolve; "
            "use length = 0") from None


def _normalize_outcome(normalize, length, width, theta0):
    """c_max as float.hex(), or the ConstructionError raised."""
    try:
        _, breaks, thin = fam._tendril_layout(length, width, theta0)
        return normalize(length, fam._tendril_shape(breaks, thin),
                         breaks).hex()
    except ConstructionError as exc:
        return (exc.constraint, str(exc))


#: (width, theta0): thin mode (b3 + width <= THIN_LIMIT), thick mode, a
#: layout that does not fit, and breakpoints closer than the node spacing
NORMALIZE_LAYOUTS = [(0.05, None), (0.07, None), (0.05, 0.1), (0.03, 0.2),
                     (0.1, None), (0.12, 0.5), (0.3, 1.0), (0.2, 0.35),
                     (0.1, 0.05), (1e-17, 0.3)]


class TestTendrilNormalize:
    """The normalization keeps the root of its first form bit for bit."""

    @pytest.mark.parametrize("width, theta0", NORMALIZE_LAYOUTS)
    def test_c_max_matches_oracle(self, width, theta0):
        for length in (0.0, 1e-20, 1e-12, 1e-6, 0.3, 1.0, 2.0, 1e3, 1e8):
            args = (length, width, theta0)
            assert (_normalize_outcome(fam._tendril_normalize, *args)
                    == _normalize_outcome(_normalize_oracle, *args)), args

    def test_sweep_covers_every_outcome(self):
        thin = [fam._tendril_layout(1.0, w, t0)[2]
                for w, t0 in NORMALIZE_LAYOUTS[:8]]
        assert any(thin) and not all(thin)
        outcomes = {_normalize_outcome(fam._tendril_normalize, length, 0.1,
                                       None)
                    for length in (1e-20, 1e8)}
        assert outcomes == {
            ("length", "requested tendril length is too small to resolve; "
             "use length = 0"),
            ("length", "requested tendril length is not attainable")}
        assert isinstance(_normalize_outcome(fam._tendril_normalize, 1.0,
                                             0.1, 0.05), tuple)


#: (family, params): every family at its catalog defaults and at the
#: edges of its admissible ranges
JET_CASES = [
    ("round", {}),
    ("scaled", {"c": 1.0}), ("scaled", {"c": 3.0}),
    ("bump", {"eta": 0.0}), ("bump", {"eta": 1.0}),
    ("bump", {"eta": 4.0, "width": 0.3, "theta0": 0.3}),
    ("bump", {"eta": 4.0, "width": 0.3, "theta0": PI - 0.3}),
    ("tendril", {"length": 0.0}), ("tendril", {"length": 1.0}),
    ("tendril", {"length": 2.0, "width": 0.05}),
    ("tendril", {"length": 1.0, "width": 0.1, "theta0": 0.151}),
    ("bubble", {"area_radius": 2.0, "neck_theta": 0.1}),
    ("bubble", {"area_radius": 0.1, "neck_theta": 0.05, "span": 0.99,
                "band": 0.01}),
    ("bubble", {"area_radius": 40.0, "neck_theta": 1.5, "span": 0.01,
                "band": 0.49}),
]

#: |jet derivative - 9-point difference of the entry below it| on uniform
#: n = 4001, relative to the sup norm of the derivative (or absolute when
#: that is below 1).  The spheres agree to round-off.  Bump, tendril and
#: bubble are only C^2, and the tendril and bubble ramps span about ten
#: nodes, so there the difference quotient itself is off by up to 2.7%.
JET_DERIVATIVE_TOL = {"round": 1e-10, "scaled": 1e-10, "bump": 2e-3,
                      "tendril": 5e-2, "bubble": 5e-2}


class TestJet:
    """`profiles(t, order)`: one callable gives phi, f and their
    derivatives; order 0 gives the same phi and f bit for bit."""

    @pytest.mark.parametrize("name, params", JET_CASES)
    def test_order_zero_is_the_leading_pair(self, name, params):
        metric = make(name, **params)
        rng = np.random.default_rng(3)
        for t in (metric.theta, metric.fine, rng.uniform(0.0, PI, 999),
                  np.array([0.0, PI])):
            full = metric.jet(t)
            assert len(full) == 6
            phi, f = metric.jet(t, 0)
            assert np.array_equal(phi, full[0])
            assert np.array_equal(f, full[1])
        assert np.array_equal(metric.on_grid.jet[0], metric.phi)
        assert np.array_equal(metric.on_grid.jet[1], metric.f)
        # the build samples the order-2 jet; order 0 gives the same bits
        phi, f = metric.profiles(metric.theta, 0)
        assert phi.tobytes() == metric.phi.tobytes()
        assert f.tobytes() == metric.f.tobytes()

    @pytest.mark.parametrize("name", list(JET_DERIVATIVE_TOL))
    def test_derivatives_match_finite_differences(self, name):
        metric = REFERENCE_BUILDERS[name](RadialGrid.uniform(4001))
        t = metric.theta
        phi, f, dphi, df, d2phi, d2f = metric.jet(t)
        for y, dy in ((phi, dphi), (f, df), (dphi, d2phi), (df, d2f)):
            err = np.max(np.abs(_derivative_high_order(y, t) - dy))
            scale = max(1.0, float(np.max(np.abs(dy))))
            assert err <= JET_DERIVATIVE_TOL[name] * scale, (name, err)


class TestBubble:
    def test_volume_grows_with_area(self):
        vols = [volume(bubble_sphere(float(a), 0.1)) for a in (1, 2, 3)]
        assert vols[0] < vols[1] < vols[2]

    def test_fiber_radius_at_plateau_center(self):
        neck, span = 0.1, 0.85
        mid = 0.5 * (neck * (1.0 - span) + neck)
        metric = bubble_sphere(2.0, neck, span=span)
        f_mid = metric.jet(np.array([mid]), 0)[1][0]
        assert f_mid == pytest.approx(2.0, rel=1e-12)

    def test_comparison_holds(self):
        rep = validate(bubble_sphere(3.0, 0.05))
        assert rep.ok

    def test_degenerate_neck_rejected(self):
        with pytest.raises((ConstructionError, DomainError,
                            DegenerateMetricError)):
            bubble_sphere(2.0, 0.0)
