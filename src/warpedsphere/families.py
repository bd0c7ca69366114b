"""Built-in metric families used by the verification suites.

Every family hands its metric one profile jet,
`profiles(t, sin, cos, order=2)`, which gives phi, f and their analytic
first and second derivatives (phi, f, dphi, df, d2phi, d2f) on the nodes
t, in any order, from their sines and cosines in one pass, or only
(phi, f) for order 0, which reads no cosines; terms the profiles share
are computed once.  So curvature and the quadrature potential solver
never need finite differences.  All constructions keep phi >= 1 and
f >= sin, i.e. they dominate the round metric pointwise.

Bump, tendril and bubble are the round sphere plus a modulation of
compact support.  `_on_support` evaluates the modulation on the nodes
inside its support only, with its own arithmetic, and fills every other
node with the round jet from the given trig; the bits are those of the
modulation evaluated everywhere, up to the sign of a zero d2f at
theta = 0, a pole value that scalar curvature replaces by extrapolation.
A width that a profile divides by squared is refused once its square
underflows to 0, as is a bump or bubble support holding no grid node.

`FAMILY_CATALOG` has one row per parameter; its guard `require_params`,
called first by every constructor, and the `families` listing both read
the rows.
"""

from __future__ import annotations

import inspect
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, DomainError
from .grids import PI, RadialGrid, default_grid, simpson_rule
from .metrics import WarpedMetric

#: peak of the bump modulation at eta = 1; kept small so the whole
#: dyadic amplitude schedule stays inside the comparison class
BUMP_PEAK = 0.015

#: colatitude where 2 cot^2 - 4 changes sign; below it a phi-only
#: profile with (1 - 1/phi^2) growing, or decaying no faster than
#: 1 / (sin cos^2), keeps scalar curvature >= 6
CORRIDOR_STAR = float(np.arcsin(1.0 / np.sqrt(3.0)))


# ----------------------------------------------------------------------
# C^2 building blocks
# ----------------------------------------------------------------------

def _bump(x, order=2):
    """(1 - x^2)^3 on |x| < 1, zero outside; C^2 across the cutoff.  With
    order 2 also its first and second derivatives."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    xc = np.where(inside, x, 0.0)
    rest = 1.0 - xc**2
    b = np.where(inside, rest ** 3, 0.0)
    if not order:
        return b
    return (b, np.where(inside, -6.0 * xc * rest ** 2, 0.0),
            np.where(inside, rest * (30.0 * xc**2 - 6.0), 0.0))


def _smootherstep(y, order=2):
    """Quintic ramp with vanishing first and second derivatives at 0, 1;
    with order 2 also its first and second derivatives."""
    yc = np.clip(y, 0.0, 1.0)
    s = yc**3 * (10.0 - 15.0 * yc + 6.0 * yc**2)
    if not order:
        return s
    inside = (y > 0.0) & (y < 1.0)
    return (s, np.where(inside, 30.0 * yc**2 * (1.0 - yc) ** 2, 0.0),
            np.where(inside, 60.0 * yc * (1.0 - yc) * (1.0 - 2.0 * yc), 0.0))


def _plateau(x, band, order=2):
    """Even plateau on [-1, 1]: 1 on the middle, quintic ramps of width
    `band` down to 0 at the edges, zero outside; with order 2 also its
    first and second derivatives."""
    y = (1.0 - np.abs(x)) / band
    if not order:
        return _smootherstep(y, 0)
    s, s1, s2 = _smootherstep(y)
    return s, s1 * (-np.sign(x) / band), s2 / band**2


def _modulated_sine(sin, cos, g, dg, d2g):
    """f = sin(theta) (1 + g) and its first and second derivatives."""
    return (sin * (1.0 + g), cos * (1.0 + g) + sin * dg,
            -sin * (1.0 + g) + 2.0 * cos * dg + sin * d2g)


def _round_jet(sin, cos, order):
    """The round sphere's jet from the nodes' trig: phi 1, f sin, dphi 0,
    df cos, d2phi 0, d2f -sin; (phi, f) for order 0."""
    one = np.ones_like(sin)
    if not order:
        return one, sin
    zero = np.zeros_like(sin)
    return one, sin, zero, cos, zero, -sin


def _on_support(lo, hi, modulation):
    """The profile jet of a metric that leaves the round sphere only on
    [lo, hi].

    `modulation(t, sin, cos, order)` is evaluated on the nodes in [lo, hi]
    alone, which may come in any order, and gives the jet there, None for
    an entry that stays round; every other node gets the round jet.  The
    modulation must equal the round jet off [lo, hi].  For one of
    x = (t - c) / w supported on |x| < 1, the rounded c - w and c + w
    bound its support: rounding is monotone, so a node t < fl(c - w) has
    t - c < -w and hence x <= -1."""

    def profiles(t, sin, cos, order=2):
        jet = _round_jet(sin, cos, order)
        inside = np.flatnonzero((t >= lo) & (t <= hi))
        if not inside.size:
            return jet
        if inside[-1] - inside[0] == inside.size - 1:
            # consecutive nodes, as on a sorted grid: take views and write
            # one block; an index array costs the tendril, whose support
            # holds most of its nodes, more than the restriction saves
            inside = slice(inside[0], inside[-1] + 1)
        part = modulation(t[inside], sin[inside],
                          cos[inside] if order else None, order)
        out = []
        for y, p in zip(jet, part):
            if p is not None:
                y = y.copy()
                y[inside] = p
            out.append(y)
        return tuple(out)

    return profiles


def _require_node(grid, lo, hi, constraint, label):
    """Refuse a support [lo, hi], as `_on_support` receives it, that holds
    no node of `grid`.  `label` names the parameter at fault."""
    i = np.searchsorted(grid.nodes, lo)
    if i == grid.n or grid.nodes[i] > hi:
        raise ConstructionError(constraint, f"{label} leaves no node of "
                                f"the grid in its support [{lo:g}, {hi:g}]")


def _require_square(constraint, w, label):
    """Refuse a length w whose square, which a profile divides by,
    underflows to 0: every node where that profile is flat would read
    0 / 0, and no node would lie inside its support.  `label` names w."""
    if w * w == 0.0:
        raise ConstructionError(
            constraint, f"{label} is too narrow: its square underflows to 0")


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------

def _sphere_profiles(c):
    """phi = c, f = c sin (multiplying by c = 1 is exact)."""

    def profiles(t, sin, cos, order=2):
        phi, f = np.full_like(t, c), c * sin
        if not order:
            return phi, f
        zero = np.zeros_like(t)
        return phi, f, zero, c * cos, zero, -f

    return profiles


def round_sphere(grid: RadialGrid | None = None) -> WarpedMetric:
    """The unit round sphere: phi = 1, f = sin."""
    grid = grid or default_grid("uniform")
    return WarpedMetric.from_profiles(grid, _sphere_profiles(1.0), "round",
                                      {})


def scaled_sphere(c: float, grid: RadialGrid | None = None) -> WarpedMetric:
    """Round sphere of radius c >= 1 (scalar curvature 6 / c^2)."""
    require_params("scaled", {"c": c})
    grid = grid or default_grid("uniform")
    return WarpedMetric.from_profiles(grid, _sphere_profiles(c), "scaled",
                                      {"c": c})


def bump_sphere(eta: float, theta0: float = PI / 2, width: float = 0.6,
                grid: RadialGrid | None = None) -> WarpedMetric:
    """Both profiles inflated by eta * BUMP_PEAK * (1 - x^2)^3 near theta0.

    The peak amplitude is eta * BUMP_PEAK, so sup |f - sin| <= eta * BUMP_PEAK
    and the curvature deficit norm scales linearly with eta.
    """
    params = {"eta": eta, "theta0": theta0, "width": width}
    require_params("bump", params)
    if not (theta0 - width >= 0.0 and theta0 + width <= PI):
        raise ConstructionError("support", "bump support must sit inside (0, pi)")
    _require_square("width", width, f"bump width {width:g}")
    grid = grid or default_grid("uniform")
    lo, hi = theta0 - width, theta0 + width
    _require_node(grid, lo, hi, "width", f"bump width {width:g}")
    amp = eta * BUMP_PEAK

    def modulation(t, sin, cos, order):
        x = (t - theta0) / width
        if not order:
            g = amp * _bump(x, 0)
            return 1.0 + g, sin * (1.0 + g)
        b, b1, b2 = _bump(x)
        g, dg, d2g = amp * b, amp * b1 / width, amp * b2 / width**2
        f, df, d2f = _modulated_sine(sin, cos, g, dg, d2g)
        return 1.0 + g, f, dg, df, d2g, d2f

    return WarpedMetric.from_profiles(grid, _on_support(lo, hi, modulation),
                                      "bump", params)


def _ramp(a, b, falling):
    """The quintic ramp from 0 at a up to 1 at b, or from 1 down to 0 if
    `falling`, as a piece of `_tendril_shape`."""
    w, sign = b - a, -1.0 if falling else 1.0

    def piece(t, order):
        S = _smootherstep((t - a) / w, order)
        if not order:
            return (1.0 - S if falling else S),
        S, S1, S2 = S
        return 1.0 - S if falling else S, sign * S1 / w, sign * S2 / w**2

    return piece


def _decay_jet(t, order=2):
    """g = sin cos^2, the weight whose reciprocal decay is scalar-flat,
    from one sine and cosine of t; with order 2 also k = g'/g and k'."""
    sn, cs = np.sin(t), np.cos(t)
    g = sn * cs**2
    if not order:
        return g,
    k = (cs**3 - 2.0 * sn**2 * cs) / g
    return g, k, sn * (2.0 * sn**2 - 7.0 * cs**2) / g - k**2


def _tendril_shape(breaks, thin=True):
    """Unit-amplitude squash profile shape(theta) in [0, 1] and its two
    derivatives; c = c_max * shape with phi = (1 - c)^(-1/2).
    `shape(t, order=0)` gives the profile alone, by the same arithmetic.

    The shape is one table of rows (lo, hi, piece) over the breakpoints
    b0..b5: a quintic rise on [b0, b1), a plateau of 1 on [b1, b2), then
    in thin mode a quintic blend in the exponent onto the exact
    1 / (sin cos^2) decay (scalar-flat) on [b2, b3), the exact decay
    itself on [b3, b4) and a quintic taper back to zero, the decay times
    a falling ramp, on [b4, b5).  Within (0, CORRIDOR_STAR) only the
    taper creates a curvature deficit; it is proportional to the decayed
    profile there.  Thick profiles release with a single quintic fall
    over [b2, b5) instead.  `piece(t, order)` gives (s,) or (s, ds, d2s)
    on the nodes of its row; the shape is 0 outside [b0, b5).
    """
    b0, b1, b2, b3, b4, b5 = breaks
    rows = [(b0, b1, _ramp(b0, b1, False)),
            (b1, b2, lambda t, order: (1.0, 0.0, 0.0))]
    if not thin:
        rows.append((b2, b5, _ramp(b2, b5, True)))
    else:
        delta = b3 - b2
        # a width too narrow to resolve overflows here, as the shape
        # itself does where `_tendril_normalize` refuses it by name
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g3, k3, dk3 = _decay_jet(b3)
            # ln of the blend value at b3, where the exact branch takes over
            s_mid = np.exp(-0.5 * k3 * delta + 0.05 * dk3 * delta**2)
        fall = _ramp(b4, b5, True)

        def blend(t, order):
            # (ln s)' ramps from 0 down to the scalar-flat slope -k(b3);
            # since k decreases with theta, the slope stays above
            # -k(theta) pointwise, so no deficit appears
            x = (t - b2) / delta
            intS = 2.5 * x**4 - 3.0 * x**5 + x**6
            int_rho = x**5 / 5.0 - x**4 / 4.0
            s = np.exp(-k3 * delta * intS - dk3 * delta**2 * int_rho)
            if not order:
                return s,
            S, S1, _ = _smootherstep(x)
            rho = x**3 * (x - 1.0)
            h1 = -k3 * S - dk3 * delta * rho
            h2 = -k3 * S1 / delta - dk3 * (4.0 * x**3 - 3.0 * x**2)
            return s, s * h1, s * (h2 + h1**2)

        def decay(t, order):
            jet = _decay_jet(t, order)
            s = s_mid * g3 / jet[0]
            if not order:
                return s,
            _, k, dk = jet
            return s, -s * k, s * (k**2 - dk)

        def taper(t, order):
            (a, *da), (r, *dr) = decay(t, order), fall(t, order)
            if not order:
                return a * r,
            (a1, a2), (r1, r2) = da, dr
            return a * r, a1 * r + a * r1, a2 * r + 2.0 * a1 * r1 + a * r2

        rows += [(b2, b3, blend), (b3, b4, decay), (b4, b5, taper)]

    def shape(t, order=2):
        t = np.asarray(t, dtype=float)
        out = [np.zeros_like(t) for _ in range(3 if order else 1)]
        for lo, hi, piece in rows:
            m = (t >= lo) & (t < hi)
            if m.any():
                # a constant piece gives all three entries at any order;
                # zip writes those the order asks for
                for y, p in zip(out, piece(t[m], order)):
                    y[m] = p
        return tuple(out) if order else out[0]

    return shape


#: a squash profile whose tail stays below this colatitude can use the
#: scalar-flat decay branch all the way down
THIN_LIMIT = 0.37


def _tendril_layout(width, theta0):
    """Breakpoints (b0..b5) of the squash profile and the mode flag."""
    if theta0 is None:
        theta0 = 2.5 * width
    b0 = theta0 - 1.5 * width
    b1 = theta0 - 0.5 * width
    b2 = theta0 + 0.5 * width
    b3 = theta0 + 1.5 * width
    thin = b3 + width <= THIN_LIMIT
    if thin:
        b4 = max(b3 + width, 0.35)
        b5 = b4 + 0.25
    else:
        # plain quintic release; no scalar-flat branch available
        b4 = b3 + width
        b5 = min(b4 + 2.0 * width, PI - 0.25)
        if b5 <= b4 + 0.5 * width:
            raise ConstructionError(
                "support", "tendril release does not fit below the far "
                "pole; reduce theta0 or width")
    if theta0 <= 1.5 * width:
        raise ConstructionError(
            "support", "tendril support must sit inside (0, pi): "
            "theta0 must exceed 1.5 * width")
    return theta0, (b0, b1, b2, b3, b4, b5), thin


def _distinct_sorted(x: np.ndarray) -> np.ndarray:
    """The distinct values of a finite 1-D array in ascending order.

    This is `np.unique`'s own algorithm for floats (sort, then drop each
    value equal to its predecessor), without the `numpy.ma` import that
    the first `np.unique` call of a process makes."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def tendril_grid(breaks) -> RadialGrid:
    """Graded grid of 1601 nodes enriched to resolve the squash region of
    a tendril."""
    b0, b1, b2, b3, b4, b5 = breaks
    base = RadialGrid.graded(1601).nodes
    lo = 0.5 * b0
    densea = np.linspace(lo, b3 + (b3 - b2), 1201)
    denseb = np.linspace(b3, min(b5 + 0.05, PI), 801)
    nodes = _distinct_sorted(np.concatenate([base, densea, denseb]))
    keep = np.concatenate([[True], np.diff(nodes) > 1e-12])
    keep[-1] = True
    nodes = nodes[keep]
    if nodes[-1] != PI:
        nodes = np.append(nodes[nodes < PI - 1e-12], PI)
    return RadialGrid(nodes)


def tendril_sphere(length: float, width: float = 0.1,
                   theta0: float | None = None,
                   grid: RadialGrid | None = None) -> WarpedMetric:
    """A long thin finger near the north pole: f stays sin, phi carries a
    squash profile phi = (1 - c)^(-1/2) normalized so the added meridian
    length int (phi - 1) equals `length` exactly.

    The profile c ramps up over [theta0 - 1.5 w, theta0 - 0.5 w], holds a
    plateau of width `width` (the finger, of fiber radius about
    sin(theta0)), then relaxes along the scalar-flat decay
    c ~ 1 / (sin cos^2) before tapering off.  For theta0 + 2.5 * width
    below CORRIDOR_STAR the curvature deficit comes only from the taper
    and shrinks with the width.
    """
    require_params("tendril",
                   {"length": length, "width": width, "theta0": theta0})
    theta0, breaks, thin = _tendril_layout(width, theta0)
    grid = grid or tendril_grid(breaks)
    shape = _tendril_shape(breaks, thin)
    c_max = _tendril_normalize(length, shape, breaks)

    def modulation(t, sin, cos, order):
        if not order:
            return (1.0 - c_max * shape(t, 0)) ** -0.5, None
        s, ds, d2s = shape(t)
        r = 1.0 - c_max * s
        r15 = r**-1.5
        return (r ** -0.5, None, 0.5 * c_max * ds * r15, None,
                0.75 * (c_max * ds) ** 2 * r**-2.5 + 0.5 * c_max * d2s * r15,
                None)

    return WarpedMetric.from_profiles(
        grid, _on_support(breaks[0], breaks[-1], modulation), "tendril",
        {"length": length, "width": width, "theta0": theta0, "c_max": c_max})


def _tendril_normalize(length, shape, breaks):
    """Solve int (phi - 1) d theta = length for the squash depth c_max;
    a shape that is not finite is refused by `width`, at length 0 too."""
    segs = [np.linspace(a, b, 4001) for a, b in zip(breaks[:-1], breaks[1:])]
    # consecutive segments share an endpoint; drop each repeat
    t = np.concatenate([segs[0]] + [seg[1:] for seg in segs[1:]])
    if not np.all(np.diff(t) > 0.0):
        t = _distinct_sorted(t)  # breakpoints closer than the node spacing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = shape(t, 0)
    bad = ~np.isfinite(s)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConstructionError(
            "width", f"tendril squash profile is {s[i]} at theta = "
            f"{t[i]:.6g}, not a finite number; the tendril width is too "
            f"small to resolve")
    if length == 0.0:
        return 0.0
    simpson = simpson_rule(t)
    buf = np.empty_like(s)

    def excess(c_max):
        np.multiply(c_max, s, out=buf)
        np.subtract(1.0, buf, out=buf)
        np.power(buf, -0.5, out=buf)
        np.subtract(buf, 1.0, out=buf)
        return simpson(buf) - length

    hi = (1.0 - 1e-15) / float(np.max(s))
    excess_hi = excess(hi)
    if excess_hi < 0.0:
        raise ConstructionError(
            "length", "requested tendril length is not attainable")

    def known_at_hi(c_max):
        # Brent's first two evaluations are at its bracket's ends; the
        # attainability check above has already evaluated hi
        return excess_hi if c_max == hi else excess(c_max)

    try:
        return float(_brentq(known_at_hi, 1e-15, hi, xtol=1e-15,
                             rtol=8.9e-16))
    except ValueError:
        raise ConstructionError(
            "length", "requested tendril length is too small to resolve; "
            "use length = 0") from None


def _brentq(f, xpre, xcur, xtol, rtol, maxiter=100):
    """Root of f between xpre and xcur by Brent's method (Brent 1973).

    A line-for-line port of scipy's ``Zeros/brentq.c``, so the root is
    bit-identical to ``scipy.optimize.brentq`` with the same tolerances.
    Raises ValueError when f(xpre) and f(xcur) have the same sign and
    RuntimeError after `maxiter` iterations without convergence.
    """
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry      # good short step
            else:
                spre = scur = sbis           # bisect
        else:
            spre = scur = sbis               # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def bubble_sphere(area_radius: float, neck_theta: float, span: float = 0.85,
                  band: float = 0.35,
                  grid: RadialGrid | None = None) -> WarpedMetric:
    """A large sphere hidden behind a narrow polar neck.

    The fiber radius f is inflated on [neck_theta (1 - span), neck_theta]
    to a plateau of height `area_radius` (the fiber-sphere radius there),
    then released back to sin before theta = neck_theta, so the level
    sphere at the neck keeps its small round area while a volume of
    order area_radius^2 hides inside the cap.
    """
    params = {"area_radius": area_radius, "neck_theta": neck_theta,
              "span": span, "band": band}
    require_params("bubble", params)
    grid = grid or default_grid("graded")
    lo = neck_theta * (1.0 - span)
    mid = 0.5 * (lo + neck_theta)
    halfw = 0.5 * (neck_theta - lo)
    with np.errstate(over="ignore", divide="ignore"):
        gmax = area_radius / np.sin(mid) - 1.0
    if not np.isfinite(gmax):
        raise ConstructionError(
            "area_radius", f"fiber radius over sin at the plateau center is "
            f"{gmax}, not a finite number; the neck is too narrow")
    if gmax <= 0.0:
        raise ConstructionError(
            "area_radius", "requested fiber radius does not exceed the "
            "round one at the plateau center")
    _require_square("band", band, f"bubble band {band:g}")
    _require_square("span", halfw, f"bubble span {span:g} (half-width "
                    f"neck_theta * span / 2 = {halfw:g})")
    _require_node(grid, mid - halfw, mid + halfw, "neck_theta",
                  f"bubble neck_theta {neck_theta:g}")

    def modulation(t, sin, cos, order):
        x = (t - mid) / halfw
        if not order:
            return None, sin * (1.0 + gmax * _plateau(x, band, 0))
        p, p1, p2 = _plateau(x, band)
        f, df, d2f = _modulated_sine(sin, cos, gmax * p, gmax * p1 / halfw,
                                     gmax * p2 / halfw**2)
        return None, f, None, df, None, d2f

    return WarpedMetric.from_profiles(
        grid, _on_support(mid - halfw, mid + halfw, modulation), "bubble",
        params)


FAMILIES = {
    "round": round_sphere,
    "scaled": scaled_sphere,
    "bump": bump_sphere,
    "tendril": tendril_sphere,
    "bubble": bubble_sphere,
}


class Param(NamedTuple):
    """One family parameter: its meaning, its admissible range from `low`
    (included if `closed`) to `high` (excluded), and the limits it shares
    with other parameters, which its constructor checks."""
    meaning: str
    low: float
    high: float = np.inf
    closed: bool = False
    relation: str = ""

    @property
    def interval(self) -> str:
        low, high = ({PI: "pi", PI / 2: "pi/2"}.get(x, f"{x:g}")
                     for x in (self.low, self.high))
        return f"{'[' if self.closed else '('}{low}, {high})"


#: one row per family parameter: family -> {parameter: Param}
FAMILY_CATALOG = {
    "round": {},
    "scaled": {"c": Param("radius; phi = c, f = c sin", 1.0, closed=True)},
    "bump": {
        "eta": Param("amplitude of the dyadic schedule", 0.0, closed=True),
        "theta0": Param("center colatitude", 0.0, PI,
                        relation="width <= theta0 <= pi - width"),
        "width": Param("support half-width", 0.0, PI),
    },
    "tendril": {
        "length": Param("added meridian length int(phi-1)", 0.0, closed=True),
        "width": Param("finger duration in colatitude", 0.0),
        "theta0": Param("finger colatitude (default 2.5 width)", 0.0, PI,
                        relation="1.5 width < theta0 < pi - 0.25 - 3 width"),
    },
    "bubble": {
        "area_radius": Param("fiber-sphere radius of the hidden region", 0.0,
                             relation="area_radius > sin(neck_theta (1 - "
                             "span/2))"),
        "neck_theta": Param("neck colatitude", 0.0, PI / 2),
        "span": Param("fraction of the cap inflated", 0.0, 1.0),
        "band": Param("C^2 matching band width", 0.0, 0.5),
    },
}

#: the constructors' own parameter defaults; REQUIRED marks none
REQUIRED = inspect.Parameter.empty
DEFAULTS = {family: {name: p.default for name, p in
                     inspect.signature(build).parameters.items()}
            for family, build in FAMILIES.items()}


def require_params(family: str, params: dict, complete: bool = True) -> None:
    """Refuse an unknown family, a parameter it does not take, a value
    outside its row's range and, if `complete`, a required parameter not
    given; a value of None is a parameter not given."""
    rows = FAMILY_CATALOG.get(family)
    if rows is None:
        raise DomainError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    for name, value in params.items():
        row = rows.get(name)
        if row is None:
            raise DomainError(
                f"parameter {name!r} not accepted by family {family!r}")
        if value is not None and not (row.low < value < row.high or
                                      row.closed and value == row.low):
            raise DomainError(f"{family} {name} must lie in {row.interval}, "
                              f"got {value}")
    missing = [name for name, default in DEFAULTS[family].items()
               if default is REQUIRED and params.get(name) is None]
    if complete and missing:
        raise DomainError(f"family {family!r} requires parameter(s): "
                          f"{', '.join(missing)}")


#: largest `sequence` count: 2.0**-1075 == 0.0, so past this index the
#: bump schedule's eta and the tendril schedule's width are exactly 0
MAX_SEQUENCE_COUNT = 1074


def require_count(count: int) -> None:
    """Refuse a schedule count below 1 or above MAX_SEQUENCE_COUNT."""
    if count < 1:
        raise DomainError("schedule must be nonempty")
    if count > MAX_SEQUENCE_COUNT:
        raise DomainError(f"sequence count must be at most "
                          f"{MAX_SEQUENCE_COUNT}, got {count}")


def schedule(family: str, count: int) -> tuple:
    """The canonical dyadic schedule of a convergence experiment."""
    if family == "bump":
        return tuple({"eta": 2.0 ** -i} for i in range(1, count + 1))
    if family == "tendril":
        return tuple({"length": 1.0, "width": 2.0 ** -i}
                     for i in range(1, count + 1))
    if family == "bubble":
        return tuple({"area_radius": float(i), "neck_theta": 0.05}
                     for i in range(1, count + 1))
    raise DomainError(f"no canonical schedule for family {family!r}")


def make(name: str, grid: RadialGrid | None = None, **params) -> WarpedMetric:
    """Construct a family member by name (CLI / config entry point)."""
    require_params(name, params)
    return FAMILIES[name](grid=grid, **params)
