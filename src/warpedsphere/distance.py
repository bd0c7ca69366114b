"""Meridian arclength and certified diameter brackets.

Geodesics of g = phi^2 dtheta^2 + f^2 g_{S^2} keep their fiber component
on a single great circle, so pairwise distance reduces to a 2-D problem
on the quotient strip (theta, alpha) in [0, pi] x [0, pi] carrying the
metric phi^2 dtheta^2 + f^2 dalpha^2, where alpha is the angle between
the two fiber directions.

On that strip the diameter is the meridian length L_tot:

* every point lies on a meridian, so the paths through the two poles
  give d(x, y) <= min(L(a) + L(b), 2 L_tot - L(a) - L(b)) <= L_tot,
  with L(a), L(b) the arclength colatitudes of x and y;
* the two poles are exactly L_tot apart;
* so the diameter is L_tot whenever f >= 0.

`diameter_bounds` reports the upper end L_tot + L_tot / (n_sample - 1):
L_tot plus the slack of one gap between n_sample colatitudes equally
spaced in arclength, kept so that the `diameter_upper` of every stored
report stays bit-identical.
"""

from __future__ import annotations

from .grids import ANALYTIC_REFINE


def meridian_arclength(metric: WarpedMetric):
    """Arclength L(theta) = int_0^theta phi along a meridian.

    Returns (values at the metric grid nodes, total length).  The total
    is the exact distance between the two poles: any path joining them
    sweeps every colatitude, so its length is at least int phi dtheta.
    """
    fine = metric.on_fine
    cum = fine.cumulative(fine.leading[0])
    return cum[::ANALYTIC_REFINE], float(cum[-1])


def diameter_bounds(metric: WarpedMetric, n_sample: int = 512):
    """Certified bracket [lower, upper] for the diameter.

    lower: the pole-to-pole meridian length L_tot (exact distance).
    upper: L_tot + L_tot / (n_sample - 1), L_tot plus one gap between
    n_sample colatitudes equally spaced in arclength.  The diameter is
    L_tot (module docstring), so the gap is slack, kept so that every
    stored `diameter_upper` stays bit-identical.
    """
    _, L_tot = meridian_arclength(metric)
    return L_tot, L_tot + L_tot / (n_sample - 1)
