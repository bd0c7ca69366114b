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
* so a scan of the cheapest explicit path over every sampled pair
  has maximum L_tot, bit for bit, whenever f >= 0.
"""

from __future__ import annotations

from .grids import ANALYTIC_REFINE
from .metrics import WarpedMetric


def meridian_arclength(metric: WarpedMetric):
    """Arclength L(theta) = int_0^theta phi along a meridian.

    Returns (values at the metric grid nodes, total length).  The total
    is the exact distance between the two poles: any path joining them
    sweeps every colatitude, so its length is at least int phi dtheta.
    """
    cum = metric.on_fine.cumulative(metric.on_fine.jet[0])
    return cum[::ANALYTIC_REFINE], float(cum[-1])


def diameter_bounds(metric: WarpedMetric, n_sample: int = 512):
    """Certified bracket [lower, upper] for the diameter.

    lower: the pole-to-pole meridian length L_tot (exact distance).
    upper: the largest pair distance over n_sample colatitudes equally
    spaced in arclength, at worst-case fiber angle pi, which is L_tot by
    the module docstring, plus one subsample gap L_tot / (n_sample - 1):
    distance is 1-Lipschitz in each endpoint's arclength, so the gap
    extends the sampled maximum to all pairs.
    """
    _, L_tot = meridian_arclength(metric)
    lower = L_tot
    upper = L_tot + L_tot / (n_sample - 1)
    return lower, max(upper, lower)
