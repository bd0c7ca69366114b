"""Reference metric families: admissibility, limits, normalization."""

import warnings

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
from warpedsphere.grids import PI, _derivative_high_order, simpson_rule
from warpedsphere.metrics import JET_LABELS, NodeSet, scalar_curvature

from conftest import REFERENCE_BUILDERS


#: one valid parameter set per family
VALID_PARAMS = {"round": {}, "scaled": {"c": 1.2}, "bump": {"eta": 0.5},
                "tendril": {"length": 1.0, "width": 0.1},
                "bubble": {"area_radius": 2.0, "neck_theta": 0.1}}


class TestMake:
    @pytest.mark.parametrize("name, params", VALID_PARAMS.items())
    def test_dispatch_and_validate(self, name, params):
        metric = make(name, **params)
        assert metric.name == name
        assert validate(metric).ok

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            make("torus")

    def test_catalog_covers_families(self):
        """One row per constructor parameter, each with a meaning and a
        nonempty range."""
        assert set(FAMILY_CATALOG) == set(FAMILIES)
        for name, rows in FAMILY_CATALOG.items():
            assert set(rows) == set(fam.DEFAULTS[name]) - {"grid"}
            for row in rows.values():
                assert isinstance(row.meaning, str) and row.meaning
                assert row.low < row.high

    @pytest.mark.parametrize("name, params", VALID_PARAMS.items())
    def test_constructor_refuses_outside_its_rows(self, name, params):
        """Each constructor refuses a value outside a row's range through
        the guard, with the row's range text, before building anything."""
        for pname, row in FAMILY_CATALOG[name].items():
            below = row.low if not row.closed else np.nextafter(row.low,
                                                                -np.inf)
            for value in (below, row.high, np.nan, -np.inf):
                with pytest.raises(DomainError) as info:
                    FAMILIES[name](**{**params, pname: float(value)},
                                   grid=None)
                assert str(info.value) == (
                    f"{name} {pname} must lie in {row.interval}, "
                    f"got {float(value)}")

    def test_make_refuses_missing_and_unknown(self):
        with pytest.raises(DomainError, match=r"requires parameter\(s\): "
                           r"area_radius, neck_theta"):
            make("bubble")
        with pytest.raises(DomainError, match="'eta' not accepted"):
            make("scaled", c=1.5, eta=0.5)


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

    @pytest.mark.parametrize("width", [0.05, 0.07, 2.0**-4, 2.0**-6,
                                       2.0**-10])
    def test_thin_profile_is_scalar_flat_after_the_blend(self, width):
        """R = 6 on the exact decay [b3, b4) up to round-off (7.3e-11 at
        width 2**-10), and R >= 6 on the log-slope blend [b2, b3), whose
        slope stays above the scalar-flat one (least R - 6: 2.1e-6)."""
        _, (_, _, b2, b3, b4, _), thin = fam._tendril_layout(width, None)
        assert thin
        metric = tendril_sphere(1.0, width)
        for nodes in (metric.on_grid, metric.on_fine):
            R, t = scalar_curvature(nodes), nodes.t
            decay, blend = (t >= b3) & (t < b4), (t >= b2) & (t < b3)
            assert decay.sum() > 100 and blend.sum() > 100
            assert np.max(np.abs(R[decay] - 6.0)) <= 1e-9
            assert np.min(R[blend]) >= 6.0

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
    _, breaks, thin = fam._tendril_layout(width, theta0)
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

    @pytest.mark.parametrize("length", [0.0, 2.3])
    def test_unresolvable_width_is_construction_error(self, length):
        """A squash shape that is not finite is refused by `width`, with
        no numpy warning, even at length 0, where the tendril is the
        round sphere."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError,
                               match="width is too small") as info:
                tendril_sphere(length, 1e-300)
        assert info.value.constraint == "width"


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
        _, breaks, thin = fam._tendril_layout(width, theta0)
        return normalize(length, fam._tendril_shape(breaks, thin),
                         breaks).hex()
    except ConstructionError as exc:
        return (exc.constraint, str(exc))


#: (width, theta0): thin mode (b3 + width <= THIN_LIMIT), thick mode, a
#: layout that does not fit, and breakpoints closer than the node spacing
NORMALIZE_LAYOUTS = [(0.05, None), (0.07, None), (0.05, 0.1), (0.03, 0.2),
                     (0.1, None), (0.12, 0.5), (0.3, 1.0), (0.2, 0.35),
                     (0.1, 0.05), (1e-17, 0.3)]


#: (width, theta0) of every squash shape the shape tests evaluate: the
#: normalization layouts that fit and the `sequence` schedule widths
SHAPE_LAYOUTS = ([layout for layout in NORMALIZE_LAYOUTS
                  if layout != (0.1, 0.05)]
                 + [(2.0**-k, None) for k in (1, 2, 6, 12, 24)])


def _shape_case(width, theta0):
    """The breakpoints, mode flag and 40,001 nodes plus the breakpoints on
    which the shape tests evaluate the layout."""
    _, breaks, thin = fam._tendril_layout(width, theta0)
    t = np.sort(np.concatenate([np.linspace(0.0, PI, 40001), breaks]))
    return breaks, thin, t


def test_shape_layouts_cover_both_modes_and_crowded_breakpoints():
    cases = [_shape_case(*layout) for layout in SHAPE_LAYOUTS]
    assert {thin for _, thin, _ in cases} == {True, False}
    assert any(np.min(np.diff(breaks)) < PI / 40000 for breaks, _, _ in cases)


@pytest.mark.parametrize("width, theta0", SHAPE_LAYOUTS)
def test_tendril_shape_order_zero_is_the_profile(width, theta0):
    """shape(t, 0) is shape(t)[0] bit for bit, on every branch."""
    breaks, thin, t = _shape_case(width, theta0)
    shape = fam._tendril_shape(breaks, thin)
    assert np.array_equal(shape(t, 0), shape(t)[0])


def _gcorr(t):
    """sin(t) cos(t)^2: the weight whose reciprocal decay is scalar-flat."""
    return np.sin(t) * np.cos(t) ** 2


def _gcorr_d1(t):
    return np.cos(t) ** 3 - 2.0 * np.sin(t) ** 2 * np.cos(t)


def _gcorr_d2(t):
    return np.sin(t) * (2.0 * np.sin(t) ** 2 - 7.0 * np.cos(t) ** 2)


def _tendril_shape_oracle(breaks, thin=True):
    """`fam._tendril_shape` as first written, piece by piece and order by
    order, with its `_gcorr` helpers above."""
    b0, b1, b2, b3, b4, b5 = breaks
    _smootherstep = fam._smootherstep

    def pieces(t, order=2):
        t = np.asarray(t, dtype=float)
        s = np.zeros_like(t)
        if order:
            ds = np.zeros_like(t)
            d2s = np.zeros_like(t)

        # quintic rise on [b0, b1]
        m = (t >= b0) & (t < b1)
        if np.any(m):
            x = (t[m] - b0) / (b1 - b0)
            if not order:
                s[m] = _smootherstep(x, 0)
            else:
                S, S1, S2 = _smootherstep(x)
                s[m] = S
                ds[m] = S1 / (b1 - b0)
                d2s[m] = S2 / (b1 - b0) ** 2

        # plateau on [b1, b2]
        m = (t >= b1) & (t < b2)
        s[m] = 1.0

        if not thin:
            m = (t >= b2) & (t < b5)
            if np.any(m):
                x = (t[m] - b2) / (b5 - b2)
                if not order:
                    s[m] = 1.0 - _smootherstep(x, 0)
                else:
                    S, S1, S2 = _smootherstep(x)
                    s[m] = 1.0 - S
                    ds[m] = -S1 / (b5 - b2)
                    d2s[m] = -S2 / (b5 - b2) ** 2
            return (s, ds, d2s) if order else s

        # log-slope blend on [b2, b3]: (ln s)' ramps from 0 down to the
        # scalar-flat slope -k(b3); since k decreases with theta, the
        # slope stays above -k(theta) pointwise, so no deficit appears
        delta = b3 - b2
        g3 = _gcorr(b3)
        k3 = _gcorr_d1(b3) / g3
        dk3 = _gcorr_d2(b3) / g3 - k3**2
        m = (t >= b2) & (t < b3)
        if np.any(m):
            x = (t[m] - b2) / delta
            intS = 2.5 * x**4 - 3.0 * x**5 + x**6
            int_rho = x**5 / 5.0 - x**4 / 4.0
            h = -k3 * delta * intS - dk3 * delta**2 * int_rho
            s[m] = np.exp(h)
            if order:
                S, S1, _ = _smootherstep(x)
                rho = x**3 * (x - 1.0)
                rho1 = 4.0 * x**3 - 3.0 * x**2
                h1 = -k3 * S - dk3 * delta * rho
                h2 = -k3 * S1 / delta - dk3 * rho1
                ds[m] = s[m] * h1
                d2s[m] = s[m] * (h2 + h1**2)

        # ln of the blend value at b3, where the exact branch takes over
        h_mid = -0.5 * k3 * delta + 0.05 * dk3 * delta**2
        s_mid = np.exp(h_mid)

        # exact scalar-flat decay on [b3, b4]
        m = (t >= b3) & (t < b4)
        if np.any(m):
            tm = t[m]
            g = _gcorr(tm)
            s[m] = s_mid * g3 / g
            if order:
                k = _gcorr_d1(tm) / g
                dk = _gcorr_d2(tm) / g - k**2
                ds[m] = -s[m] * k
                d2s[m] = s[m] * (k**2 - dk)

        # quintic taper on [b4, b5]
        m = (t >= b4) & (t < b5)
        if np.any(m):
            tm = t[m]
            x = (tm - b4) / (b5 - b4)
            g = _gcorr(tm)
            base = s_mid * g3 / g
            if not order:
                s[m] = base * (1.0 - _smootherstep(x, 0))
            else:
                dx = 1.0 / (b5 - b4)
                k = _gcorr_d1(tm) / g
                dk = _gcorr_d2(tm) / g - k**2
                base1 = -base * k
                base2 = base * (k**2 - dk)
                S, S1, S2 = _smootherstep(x)
                T = 1.0 - S
                T1 = -S1 * dx
                T2 = -S2 * dx**2
                s[m] = base * T
                ds[m] = base1 * T + base * T1
                d2s[m] = base2 * T + 2.0 * base1 * T1 + base * T2
        return (s, ds, d2s) if order else s

    return pieces


@pytest.mark.parametrize("width, theta0", SHAPE_LAYOUTS)
def test_tendril_shape_matches_its_first_form(width, theta0):
    """The table of pieces gives the profile of the piecewise first form
    bit for bit at both orders; thick shapes keep all three entries bit
    for bit, and thin ones their derivatives within 4 ulp."""
    breaks, thin, t = _shape_case(width, theta0)
    shape = fam._tendril_shape(breaks, thin)
    oracle = _tendril_shape_oracle(breaks, thin)
    jet, want = shape(t), oracle(t)
    assert shape(t, 0).tobytes() == oracle(t, 0).tobytes()
    assert jet[0].tobytes() == want[0].tobytes()
    for got, ref in zip(jet[1:], want[1:]):
        if thin:
            np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(float).eps,
                                       atol=0.0)
        else:
            assert got.tobytes() == ref.tobytes()


class TestTendrilNormalize:
    """The normalization keeps the root of its first form bit for bit."""

    @pytest.mark.parametrize("width, theta0", NORMALIZE_LAYOUTS)
    def test_c_max_matches_oracle(self, width, theta0):
        for length in (0.0, 1e-20, 1e-12, 1e-6, 0.3, 1.0, 2.0, 1e3, 1e8):
            args = (length, width, theta0)
            assert (_normalize_outcome(fam._tendril_normalize, *args)
                    == _normalize_outcome(_normalize_oracle, *args)), args

    @pytest.mark.parametrize("width", [0.5, 0.25, 0.1, 2.0**-6, 2.0**-24])
    def test_excess_evaluated_once_per_brent_point(self, width,
                                                   monkeypatch):
        """Brent's evaluation at the bracket's upper end reuses the
        attainability check's, so every pass over the nodes is one Brent
        asks for, and the root is unchanged."""
        c_max = fam.tendril_sphere(1.0, width).params["c_max"]
        passes, asked = [], []
        make_rule, brent = fam.simpson_rule, fam._brentq

        def counting_rule(x):
            rule = make_rule(x)

            def counted(y):
                passes.append(1)
                return rule(y)
            return counted

        def counting_brent(f, *args, **kwargs):
            def asking(c):
                asked.append(c)
                return f(c)
            return brent(asking, *args, **kwargs)

        monkeypatch.setattr(fam, "simpson_rule", counting_rule)
        monkeypatch.setattr(fam, "_brentq", counting_brent)
        assert fam.tendril_sphere(1.0, width).params["c_max"] == c_max
        assert len(asked) > 2 and len(passes) == len(asked)

    def test_sweep_covers_every_outcome(self):
        thin = [fam._tendril_layout(w, t0)[2]
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


def _tendril_breaks():
    """Breakpoints of every tendril layout the sweep builds: widths
    2**-1..2**-40, 40 random widths in (0.01, 0.4) and the subnormal
    widths 2**-1052..2**-1074 of `sequence --count 1074`, each with
    theta0 at 2, 2.5 and 3.1 widths; layouts that do not fit are left
    out."""
    widths = ([2.0**-k for k in range(1, 41)]
              + list(np.random.default_rng(18).uniform(0.01, 0.4, 40))
              + [2.0**-k for k in range(1052, 1075)])
    for width in widths:
        for k in (2.0, 2.5, 3.1):
            try:
                yield fam._tendril_layout(width, k * width)[1]
            except ConstructionError:
                pass


def test_distinct_sorted_is_np_unique():
    """The tendril's node merge gives `np.unique`'s nodes bit for bit, on
    the arrays `tendril_grid` and `_tendril_normalize` merge, including
    the layouts whose breakpoints are closer than the node spacing."""
    base = RadialGrid.graded(1601).nodes
    layouts = crowded = 0
    for breaks in _tendril_breaks():
        b0, b1, b2, b3, b4, b5 = breaks
        grid_nodes = np.concatenate([
            base, np.linspace(0.5 * b0, b3 + (b3 - b2), 1201),
            np.linspace(b3, min(b5 + 0.05, PI), 801)])
        segs = [np.linspace(a, b, 4001)
                for a, b in zip(breaks[:-1], breaks[1:])]
        joined = np.concatenate([segs[0]] + [seg[1:] for seg in segs[1:]])
        crowded += not np.all(np.diff(joined) > 0.0)
        for x in (grid_nodes, joined, np.concatenate(segs)):
            assert (fam._distinct_sorted(x).tobytes()
                    == np.unique(x).tobytes()), breaks
        layouts += 1
    assert layouts > 300 and crowded > 40


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
        for t in (metric.theta, metric.on_fine.t, rng.uniform(0.0, PI, 999),
                  np.array([0.0, PI])):
            full = metric.jet(t)
            assert len(full) == 6
            phi, f = metric.jet(t, 0)
            assert np.array_equal(phi, full[0])
            assert np.array_equal(f, full[1])
        assert np.array_equal(metric.on_grid.jet[0], metric.phi)
        assert np.array_equal(metric.on_grid.jet[1], metric.f)
        # the build samples the order-2 jet; order 0 gives the same bits
        phi, f = metric.profiles(metric.theta, metric.grid.sin, None, 0)
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


def _support_ends(name, params):
    """The colatitudes where the family's modulation leaves the round
    jet: its support ends, as written in the family's parameters and as
    the family rounds them."""
    if name == "bump":
        theta0, width = params.get("theta0", PI / 2), params.get("width", 0.6)
        return [theta0 - width, theta0 + width]
    if name == "bubble":
        neck, span = params["neck_theta"], params.get("span", 0.85)
        lo = neck * (1.0 - span)
        mid, halfw = 0.5 * (lo + neck), 0.5 * (neck - lo)
        return [lo, neck, mid - halfw, mid + halfw]
    if name == "tendril":
        _, breaks, _ = fam._tendril_layout(params.get("width", 0.1),
                                           params.get("theta0"))
        return [breaks[0], breaks[-1]]
    return []


SUPPORT_CASES = [
    ("round", {}), ("scaled", {"c": 3.0}),
    ("bump", {"eta": 1.0}), ("bump", {"eta": 4.0, "width": 0.3,
                                      "theta0": 0.3}),
    ("bump", {"eta": 2.0, "width": 0.7, "theta0": 1.1}),
    ("tendril", {"length": 1.0, "width": 0.1}),
    ("tendril", {"length": 1.5, "width": 0.25}),
    ("bubble", {"area_radius": 2.0, "neck_theta": 0.05}),
    ("bubble", {"area_radius": 3.0, "neck_theta": 0.3, "span": 0.5,
                "band": 0.2}),
]


class TestSupport:
    """A family evaluates its modulation only on the nodes of its support
    and fills the others with the round jet from the nodes' own trig; no
    node order, trig source or support end changes a bit."""

    @staticmethod
    def _metric_with_ends(name, params):
        """The family on a grid holding every support end and its two
        neighbouring floats on each side."""
        ends = np.array(_support_ends(name, params))
        below, above = np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)
        extra = np.concatenate([ends, below, np.nextafter(below, -np.inf),
                                above, np.nextafter(above, np.inf)])
        nodes = fam._distinct_sorted(np.concatenate(
            [np.linspace(0.0, PI, 401), extra[(extra > 0.0) & (extra < PI)]]))
        metric = make(name, grid=RadialGrid(nodes), **params)
        assert np.isin(ends[(ends > 0.0) & (ends < PI)], nodes).all()
        return metric

    @pytest.mark.parametrize("name, params", SUPPORT_CASES)
    @pytest.mark.parametrize("order", [0, 2])
    def test_jet_is_bit_identical_in_any_node_order(self, name, params,
                                                    order):
        metric = self._metric_with_ends(name, params)
        t = metric.theta
        # the build's jet, and a fresh node set's order-0 read
        cached = (metric.on_grid.jet if order else
                  NodeSet(metric.grid, metric.profiles).leading)
        assert len(cached) == (6 if order else 2)
        perm = np.random.default_rng(11).permutation(t.size)
        for got in (metric.jet(t, order),
                    tuple(y[np.argsort(perm)]
                          for y in metric.jet(t[perm], order))):
            for label, a, b in zip(JET_LABELS, cached, got):
                assert a.tobytes() == b.tobytes(), (name, order, label)

    @pytest.mark.parametrize("name, params", SUPPORT_CASES)
    @pytest.mark.parametrize("order", [0, 2])
    def test_support_drops_no_node(self, name, params, order, monkeypatch):
        """Against the modulation evaluated on every node, the jet changes
        no value: a boundary node left out of the support would show in
        dphi, which leaves 0 within two floats inside a bump or tendril
        end.  The round fill's d2f = -sin is -0.0 at theta = 0, where the
        modulation computes +0.0, so values are compared, not bits."""
        metric = self._metric_with_ends(name, params)
        grid, t = metric.grid, metric.theta
        cos = grid.cos if order else None
        restricted = metric.profiles(t, grid.sin, cos, order)
        on_support = fam._on_support

        def everywhere(lo, hi, modulation):
            return on_support(-np.inf, np.inf, modulation)

        monkeypatch.setattr(fam, "_on_support", everywhere)
        reference = make(name, grid=grid, **params).profiles(
            t, grid.sin, cos, order)
        for label, a, b in zip(JET_LABELS, restricted, reference):
            assert np.array_equal(a, b), (name, order, label)

    @pytest.mark.parametrize("build, constraint", [
        (lambda: bump_sphere(1.0, theta0=1.0, width=1e-150), "width"),
        (lambda: bump_sphere(1.0, theta0=1.0001, width=1e-4), "width"),
        (lambda: bubble_sphere(2.0, 1e-160), "neck_theta")],
        ids=["bump-width-1e-150", "bump-between-nodes", "bubble-neck-1e-160"])
    def test_support_without_a_node_refused(self, build, constraint):
        """A support that holds no node of the family's default grid would
        leave the round sphere under the family's name: refused by the
        parameter at fault, with no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError,
                               match="leaves no node of the grid") as info:
                build()
        assert info.value.constraint == constraint

    def test_support_holding_one_node_is_built(self):
        """The check reads the support as `_on_support` does, ends
        included: a bump whose rounded support is one grid node is built,
        and leaves the round sphere at that node."""
        grid = RadialGrid.uniform(2001)
        theta0 = float(grid.nodes[637])
        metric = bump_sphere(1.0, theta0=theta0, width=1e-150, grid=grid)
        assert theta0 - 1e-150 == theta0 + 1e-150 == theta0
        bumped = np.flatnonzero(metric.phi != 1.0)
        assert bumped.tolist() == [637]

    def test_support_nodes_leave_the_round_jet(self):
        """Within two floats inside each end a node is modulated: dphi is
        not 0 there, so the drop test above can see it."""
        for name, params in SUPPORT_CASES:
            if name not in ("bump", "tendril"):
                continue
            metric = self._metric_with_ends(name, params)
            dphi = metric.on_grid.jet[2]
            lo, hi = _support_ends(name, params)[:2]
            for end, inward in ((lo, np.inf), (hi, -np.inf)):
                one = np.nextafter(end, inward)
                inside = np.isin(metric.theta,
                                 [one, np.nextafter(one, inward)])
                if 0.0 < end < PI:
                    assert np.any(dphi[inside] != 0.0), (name, end)


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

    @pytest.mark.parametrize("build, constraint", [
        (lambda: bubble_sphere(2.0, 0.05, band=1e-200), "band"),
        (lambda: bubble_sphere(2.0, 0.05, span=1e-300), "span"),
        (lambda: bump_sphere(1.0, theta0=1.0, width=1e-300), "width")])
    def test_underflowing_square_refused(self, build, constraint,
                                         monkeypatch):
        """A width whose square underflows to 0 would read 0 / 0 where the
        profile is flat and leave its support without a node: refused by
        name before any profile is evaluated, with no numpy warning."""
        def no_build(*args):
            raise AssertionError("a profile was evaluated")

        monkeypatch.setattr(fam.WarpedMetric, "from_profiles", no_build)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError,
                               match=f"{constraint} .* underflows to 0"
                               ) as info:
                build()
        assert info.value.constraint == constraint

    @pytest.mark.parametrize("area_radius, neck_theta", [
        (1e308, 0.05), (2.0, 1e-310), (2.0, 5e-324)])
    def test_overflowing_fiber_radius_refused(self, area_radius, neck_theta):
        """area_radius / sin at the plateau center overflows: refused by
        name, with no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError,
                               match="not a finite number") as info:
                bubble_sphere(area_radius, neck_theta)
        assert info.value.constraint == "area_radius"

    def test_degenerate_neck_rejected(self):
        with pytest.raises((ConstructionError, DomainError,
                            DegenerateMetricError)):
            bubble_sphere(2.0, 0.0)
