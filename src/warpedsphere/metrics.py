"""Warped-product metrics on the 3-sphere and their basic geometry.

A metric is g = phi(theta)^2 dtheta^2 + f(theta)^2 g_{S^2} with
theta in [0, pi].  Smooth closure at the poles requires f(0) = f(pi) = 0
and f'(0) = phi(0), f'(pi) = phi(pi).  Everything downstream (potential
solvers, functionals, verification suites) consumes the `WarpedMetric`
container defined here.

A profile jet is evaluated on nodes together with their sines and
cosines: a `NodeSet` and `WarpedMetric.from_profiles` pass their grid's
cached ones (no cosines for an order-0 read), and `WarpedMetric.jet`
computes them once for nodes that belong to no grid, unless its caller
holds them.  A jet entry may be such a trig array itself, which is
read-only, so no reader writes into a jet.

`summarize` judges a metric once against the class bounds; its two
records are a report's `summary` and `membership` blocks as written.
"""

from __future__ import annotations

import warnings
from functools import cache, cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .distance import diameter_bounds
from .errors import DegenerateMetricError, StructuralError
from .grids import (PI, STENCIL, RadialGrid, _derivative_high_order,
                    integrate)

#: slop admitted in the pointwise comparison checks (phi >= 1, f >= sin)
COMPARISON_TOL = 1e-12

#: pole closure defect |f'(pole)| - phi(pole) admitted by `validate`
CLOSURE_TOL = 1e-8

#: nodes of the subgrid on which `ball_volume` integrates one ball
BALL_SUBGRID_N = 4001


#: an analytic profile jet: profiles(t, sin, cos, order=2) gives (phi, f,
#: dphi, df, d2phi, d2f) on the nodes t, in any order, whose sines and
#: cosines are sin and cos; profiles(t, sin, None, 0) gives (phi, f) only.
#: An entry may be sin or cos itself
ProfileFns = Callable[..., tuple]

#: the entries of a profile jet, in order
JET_LABELS = ("phi", "f", "dphi", "df", "d2phi", "d2f")


class NodeSet:
    """One node set of a metric, its grid nodes or its refined nodes: the
    grid, and the metric's profile jet evaluated there when first read,
    at the order read, with the pole-safe fields built on it.  The nodes,
    rules, sines and cosines are the grid's own, shared by every metric
    on that grid; the jet is evaluated on the grid's sines, and its
    cosines for order 2.  It holds the profile functions and never its
    metric: a reference back would make a cycle, and a dropped metric's
    arrays would stay resident until the cyclic garbage collector ran.

    Both orders are evaluated with numpy's overflow and invalid-value
    warnings silenced, as in `WarpedMetric.from_profiles`; a summary
    quantity that is not finite is refused by name (`summarize`)."""

    def __init__(self, grid: RadialGrid, profiles: ProfileFns):
        self.grid, self.profiles = grid, profiles

    def _evaluate(self, order: int) -> tuple:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self.profiles(self.t, self.sin, self.cos if order else None,
                                 order)

    @cached_property
    def jet(self) -> tuple:
        """(phi, f, dphi, df, d2phi, d2f) on the nodes."""
        return self._evaluate(2)

    @cached_property
    def leading(self) -> tuple:
        """(phi, f) on the nodes: the jet's first two entries once the jet
        is evaluated, else one order-0 evaluation, which gives the same
        bits."""
        if "jet" in self.__dict__:
            return self.jet[:2]
        return self._evaluate(0)

    # the nodes and what depends on them alone are the grid's
    t = property(lambda self: self.grid.nodes)
    simpson = property(lambda self: self.grid.simpson)
    cumulative = property(lambda self: self.grid.cumulative)
    trapezoid = property(lambda self: self.grid.trapezoid)
    sin = property(lambda self: self.grid.sin)
    cos = property(lambda self: self.grid.cos)

    @cached_property
    def fos(self) -> np.ndarray:
        """f / sin, with the pole limit f'(pole) = phi(pole) filled in."""
        s, f, df = self.sin, self.jet[1], self.jet[3]
        return np.abs(np.divide(f, s, out=df.copy(), where=s > 1e-9))

    @cached_property
    def sf(self) -> np.ndarray:
        """sin * f'/f, finite at the poles (limit cos * phi/phi = +-1)."""
        s, f, df, fos = self.sin, self.jet[1], self.jet[3], self.fos
        poles = ~(np.abs(f) > 1e-12)
        out = np.divide(s * df, f, out=np.empty_like(s), where=~poles)
        sgn = np.where(self.t[poles] <= PI / 2, 1.0, -1.0)
        out[poles] = sgn * np.abs(df[poles]) / fos[poles]
        return out


def _table_profiles(theta: np.ndarray, phi: np.ndarray,
                    f: np.ndarray) -> ProfileFns:
    """The profile jet of samples (phi, f) on the nodes theta: the samples
    and their finite-difference derivatives, the latter computed on the
    first order-2 read, interpolated linearly, which is exact at the
    nodes.

    f' at the two poles, which pole closure compares with phi there, is
    that of the STENCIL-node interpolant: `np.gradient`'s one-sided error
    would exceed CLOSURE_TOL on the round sphere itself.  The second
    derivatives are `np.gradient`'s of its own first derivatives."""

    @cache
    def derivatives() -> tuple:
        dphi = np.gradient(phi, theta, edge_order=2)
        df = np.gradient(f, theta, edge_order=2)
        d2f = np.gradient(df, theta, edge_order=2)
        df[0] = _derivative_high_order(f[:STENCIL], theta[:STENCIL])[0]
        df[-1] = _derivative_high_order(f[-STENCIL:], theta[-STENCIL:])[-1]
        return dphi, df, np.gradient(dphi, theta, edge_order=2), d2f

    def profiles(t, sin, cos, order=2):
        samples = (phi, f) + (derivatives() if order else ())
        return tuple(np.interp(t, theta, y) for y in samples)

    return profiles


class WarpedMetric:
    """A warped-product metric sampled on a radial grid.

    `profiles` is optional; when present, `jet` evaluates the analytic
    profiles and their derivatives, otherwise it interpolates the samples
    and their finite-difference derivatives.  Every reader takes phi, f
    and their derivatives from `jet`, or from one of the metric's two
    cached `NodeSet`s, `on_grid` (the grid nodes) and `on_fine` (the
    refined nodes), and integrates there with the rules, sines and
    cosines of the node set's grid and the pole-safe fields the node set
    caches.  A reader of phi and f alone takes a node set's `leading`,
    so a geometry summary never evaluates derivatives on the refined
    nodes.  `quadrature` is the node set of analytic integrands.
    Metrics compare by identity.
    """

    def __init__(self, grid: RadialGrid, phi: np.ndarray, f: np.ndarray,
                 name: str = "custom", profiles: Optional[ProfileFns] = None,
                 params: Optional[dict] = None):
        self.grid, self.name, self.profiles = grid, name, profiles
        self.params = {} if params is None else params
        self.phi = phi = np.asarray(phi, dtype=float)
        self.f = f = np.asarray(f, dtype=float)
        n = grid.n
        if phi.shape != (n,) or f.shape != (n,):
            raise StructuralError("profile samples must match the grid length")
        if np.any(~np.isfinite(phi)) or np.any(~np.isfinite(f)):
            raise StructuralError("profiles contain non-finite samples")
        if np.any(phi <= 0.0):
            raise DegenerateMetricError("phi must be strictly positive")
        interior = f[1:-1]
        if np.any(interior <= 0.0):
            raise DegenerateMetricError("f must be positive away from the poles")
        # relative to f's scale: c*sin(pi) is c*1.2e-16 on a sphere of radius c
        pole_tol = 1e-13 * max(1.0, float(f.max()))
        if abs(f[0]) > pole_tol or abs(f[-1]) > pole_tol:
            raise DegenerateMetricError("f must vanish at both poles")

    @classmethod
    def from_profiles(cls, grid: RadialGrid, profiles: ProfileFns, name: str,
                      params: dict) -> "WarpedMetric":
        """The metric of the analytic `profiles` on `grid`.  The grid nodes
        are evaluated once, at order 2: phi and f are the same arithmetic
        at every order, so the samples are the jet's first two entries
        and the jet seeds the metric's `on_grid`.  A jet entry that is
        not finite on the grid refuses the metric with a
        DegenerateMetricError naming the first one, so numpy's overflow
        and invalid-value warnings are silenced while it is computed."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            jet = profiles(grid.nodes, grid.sin, grid.cos)
        for label, y in zip(JET_LABELS, jet):
            bad = ~np.isfinite(y)
            if bad.any():
                i = int(np.argmax(bad))
                raise DegenerateMetricError(
                    f"{name} profile {label} is {y[i]} at theta = "
                    f"{grid.nodes[i]:.6g}, not a finite number; the metric "
                    f"cannot be built")
        metric = cls(grid=grid, phi=jet[0], f=jet[1], name=name,
                     profiles=profiles, params=dict(params))
        metric.on_grid = NodeSet(grid, profiles)
        metric.on_grid.jet = jet
        return metric

    @property
    def theta(self) -> np.ndarray:
        return self.grid.nodes

    @cached_property
    def _profile_jet(self) -> ProfileFns:
        """profiles(t, order) of the metric: its analytic profiles, or the
        jet of its sampled table."""
        if self.profiles is not None:
            return self.profiles
        return _table_profiles(self.theta, self.phi, self.f)

    def jet(self, t: np.ndarray, order: int = 2, sin: np.ndarray = None,
            cos: np.ndarray = None) -> tuple:
        """(phi, f, dphi, df, d2phi, d2f) on the nodes t; (phi, f) for
        order 0.  `sin` and `cos` are those of t, if the caller holds
        them; otherwise they are computed here, cos only for order 2.  A
        sampled table is interpolated linearly, which is exact at the
        grid nodes."""
        t = np.asarray(t, dtype=float)
        sin = np.sin(t) if sin is None else sin
        if order and cos is None:
            cos = np.cos(t)
        return self._profile_jet(t, sin, cos if order else None, order)

    @cached_property
    def on_grid(self) -> NodeSet:
        return NodeSet(self.grid, self._profile_jet)

    @cached_property
    def on_fine(self) -> NodeSet:
        """The node set of `grid.refined`, the grid nodes with every cell
        split into ANALYTIC_REFINE equal parts: the quadrature nodes of
        analytic integrands."""
        return NodeSet(self.grid.refined, self._profile_jet)

    @property
    def quadrature(self) -> NodeSet:
        """The node set of analytic integrands: the refined nodes when the
        profiles are analytic, the grid nodes of a sampled table."""
        return self.on_fine if self.profiles is not None else self.on_grid

    @cached_property
    def deficit(self) -> float:
        """The deficit m(g) of `scalar_deficit`, computed once per metric."""
        return scalar_deficit(self)


class ClassParams:
    """Admissibility thresholds (V, D, m_bar, Lambda)."""

    def __init__(self, volume_max: float, diameter_max: float,
                 mass_max: float, cheeger_min: float):
        self.volume_max, self.diameter_max = volume_max, diameter_max
        self.mass_max, self.cheeger_min = mass_max, cheeger_min
        for label, v in vars(self).items():
            if not (0.0 < v < np.inf):
                raise StructuralError(f"{label} must be positive and finite")


# ----------------------------------------------------------------------
# derivatives, curvature
# ----------------------------------------------------------------------

def scalar_curvature(nodes: NodeSet) -> np.ndarray:
    """Scalar curvature R(theta) on a node set of a metric (`on_grid` or
    `on_fine`); poles filled by one-sided parabolic extrapolation.

    With f_s = f'/phi and f_ss = (f_s)'/phi,
        R = -4 f_ss / f + 2 (1 - f_s^2) / f^2.
    Both terms are 0/0 at the poles, so each pole value is the value at
    the pole of the parabola through the three nearest interior samples,
    in closed (3-point Lagrange) form.
    """
    t, (phi, f, dphi, df, _, d2f) = nodes.t, nodes.jet
    fs = df / phi
    # f_ss = (f_s)'/phi = (f'' phi - f' phi') / phi^3
    fss = (d2f * phi - df * dphi) / phi**3
    R = np.empty_like(t)
    inner = slice(1, -1)
    R[inner] = -4.0 * fss[inner] / f[inner] \
        + 2.0 * (1.0 - fs[inner]**2) / f[inner]**2
    for pole, sl in ((0, slice(1, 4)), (-1, slice(-4, -1))):
        (x0, x1, x2), (y0, y1, y2) = t[sl] - t[pole], R[sl]
        # the parabola through the three samples, at the pole, in closed
        # form: a least-squares solve would start LAPACK for 3 points.
        # nan if a sample is not finite, so the deficit's clip at 0
        # cannot hide an infinity
        R[pole] = (y0 * (x1 * x2 / ((x0 - x1) * (x0 - x2)))
                   + y1 * (x0 * x2 / ((x1 - x0) * (x1 - x2)))
                   + y2 * (x0 * x1 / ((x2 - x0) * (x2 - x1)))) \
            if np.isfinite(R[sl]).all() else np.nan
    return R


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

class ValidationReport(NamedTuple):
    smooth_closure: bool
    comparison_ok: bool
    closure_defect: float
    comparison_margin_phi: float
    comparison_margin_f: float

    @property
    def ok(self) -> bool:
        return self.smooth_closure and self.comparison_ok


def validate(metric: WarpedMetric) -> ValidationReport:
    """Check pole closure and the pointwise comparison g >= round."""
    df = metric.on_grid.jet[3]
    d0 = abs(df[0] - metric.phi[0])
    # closure at theta = pi requires |f'(pi)| = phi(pi) with f > 0 on (0, pi)
    d1 = abs(abs(df[-1]) - metric.phi[-1])
    defect = max(d0, d1)
    m_phi = float(np.min(metric.phi - 1.0))
    m_f = float(np.min(metric.f - metric.on_grid.sin))
    closure = bool(defect <= CLOSURE_TOL)
    comparison = m_phi >= -COMPARISON_TOL and m_f >= -COMPARISON_TOL
    return ValidationReport(closure, comparison, defect, m_phi, m_f)


# ----------------------------------------------------------------------
# volume, mass, level sets
# ----------------------------------------------------------------------

def volume(metric: WarpedMetric) -> float:
    """Total volume, 4*pi * integral of phi f^2, on the metric's
    `quadrature` node set."""
    nodes = metric.quadrature
    phi, f = nodes.leading
    return nodes.simpson(4.0 * PI * phi * f**2)


def scalar_deficit(metric: WarpedMetric) -> float:
    """m(g) = || (6 - R)^+ ||_{L^2(g)}^{1/2}  (note the outer square root)."""
    grid = metric.on_grid
    R = scalar_curvature(grid)
    pos = np.clip(6.0 - R, 0.0, None)
    l2sq = grid.simpson(pos**2 * 4.0 * PI * metric.phi * metric.f**2)
    return float(l2sq ** 0.25)


def cheeger_levelset(metric: WarpedMetric) -> tuple[float, float]:
    """Level-set isoperimetric surrogate (an upper bound for IN_1).

    Returns (value, argmin colatitude) where value is the min over
    interior nodes s of  Area({theta = s}) / min(V_-, V_+)
    with Area = 4 pi f(s)^2 and V_-, V_+ the volumes of the two
    sides.  Restricting to coordinate spheres can only raise the true
    infimum, so a small surrogate certifies a genuinely small constant
    while a large surrogate is only provisional evidence.
    """
    phi, f = metric.on_grid.jet[:2]
    cum = metric.on_grid.cumulative(4.0 * PI * phi * f**2)   # V_- per node
    total = float(cum[-1])
    areas = 4.0 * PI * metric.f[1:-1]**2
    small = np.minimum(cum[1:-1], total - cum[1:-1])
    small = np.clip(small, 1e-300, None)
    quot = areas / small
    i = int(np.argmin(quot))
    return float(quot[i]), float(metric.theta[1:-1][i])


# ----------------------------------------------------------------------
# geodesic balls
# ----------------------------------------------------------------------

def ball_volume(metric: WarpedMetric, center_theta: float, r: float) -> float:
    """g-volume of the round ball of radius r about an axis-symmetric point.

    The ball is the set of points at round-sphere distance < r from the
    center (colatitude `center_theta`, any azimuth); its volume is
    measured with the metric's own element phi f^2.  For a point p on
    the round sphere at angular distance d(theta, alpha) from the
    center, cos d = cos(theta) cos(q) + sin(theta) sin(q) cos(alpha),
    so the fiber integral over the cap {d < r} collapses to

        vol = 2 pi * int phi f^2 * clip(1 - c, 0, 2) dtheta,
        c   = (cos r - cos theta cos q) / (sin theta sin q),

    supported on |theta - q| < r.  A dedicated fine subgrid resolves
    radii far below the grid spacing.
    """
    if not (0.0 <= center_theta <= PI):
        raise StructuralError("center colatitude out of range")
    if r <= 0.0:
        return 0.0
    q = center_theta
    lo, hi = max(0.0, q - r), min(PI, q + r)
    t = np.linspace(lo, hi, BALL_SUBGRID_N)
    sin = np.sin(t)
    phi, f = metric.jet(t, 0, sin=sin)
    if q < 1e-12 or q > PI - 1e-12:
        cap = np.full_like(t, 2.0)  # polar center: full fibers inside
    else:
        s = np.clip(sin * np.sin(q), 1e-300, None)
        c = (np.cos(r) - np.cos(t) * np.cos(q)) / s
        cap = np.clip(1.0 - c, 0.0, 2.0)
    return 2.0 * PI * integrate(phi * f**2 * cap, t)


# ----------------------------------------------------------------------
# class membership
# ----------------------------------------------------------------------

class GeometrySummary(NamedTuple):
    """The `summary` block of a report, fields in CSV order."""
    volume: float
    diameter_lower: float
    diameter_upper: float
    mass: float
    cheeger_surrogate: float
    validation_ok: bool


class MembershipReport(NamedTuple):
    """The `membership` block of a report, fields in CSV order."""
    admitted: bool
    comparison_ok: bool
    volume_ok: bool
    diameter_ok: bool
    mass_ok: bool
    cheeger_fails: bool  # surrogate < Lambda certifies genuine failure
    cheeger_provisional: bool


def summarize(metric: WarpedMetric, params: ClassParams
              ) -> tuple[GeometrySummary, MembershipReport]:
    """The geometry summary of the metric and its admissibility against
    the class bounds (V, D, m_bar, Lambda).

    A summary quantity that is not finite refuses the metric with a
    DegenerateMetricError: no verdict can rest on it.  numpy's overflow
    and invalid-value warnings are therefore silenced while the
    quantities are computed; the refusal names the first one that is not
    finite.

    The Cheeger condition can only be *refuted* here: the level-set
    surrogate upper-bounds the true isoperimetric constant, so
    surrogate < Lambda is a certificate of failure, while
    surrogate >= Lambda leaves membership provisional.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lo, hi = diameter_bounds(metric)
        values = {"volume": volume(metric), "diameter_lower": lo,
                  "diameter_upper": hi, "mass": metric.deficit,
                  "cheeger_surrogate": cheeger_levelset(metric)[0]}
    for key, value in values.items():
        if not np.isfinite(value):
            raise DegenerateMetricError(
                f"summary {key} is {value}, not a finite number; the metric "
                f"cannot be reported")
    checks = validate(metric)
    cheeger_fails = values["cheeger_surrogate"] < params.cheeger_min
    flags = (checks.comparison_ok, values["volume"] <= params.volume_max,
             hi <= params.diameter_max, values["mass"] <= params.mass_max)
    admitted = all(flags) and not cheeger_fails
    return (GeometrySummary(**values, validation_ok=checks.ok),
            MembershipReport(admitted, *flags, cheeger_fails,
                             not cheeger_fails))


def load_profile_table(path) -> WarpedMetric:
    """Rebuild a sampled metric from a (theta, phi, f) text table.

    A table numpy cannot parse (a value that is not a number, bytes that
    are not UTF-8, no data at all) is a StructuralError naming `path`;
    no warning is let out.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)   # "no data"
            data = np.loadtxt(path)
    except (ValueError, UserWarning) as exc:
        raise StructuralError(f"cannot read profile table {path}: "
                              + " ".join(str(exc).split())) from None
    if data.ndim != 2 or data.shape[1] != 3:
        raise StructuralError("profile table must have columns theta phi f")
    grid = RadialGrid(nodes=np.ascontiguousarray(data[:, 0]))
    return WarpedMetric(grid=grid, phi=np.ascontiguousarray(data[:, 1]),
                        f=np.ascontiguousarray(data[:, 2]), name="table")

