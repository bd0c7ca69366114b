"""Meridian arclength and certified diameter brackets.

Geodesics of g = phi^2 dtheta^2 + f^2 g_{S^2} keep their fiber component
on a single great circle, so pairwise distance reduces to a 2-D problem
on the quotient strip (theta, alpha) in [0, pi] x [0, pi] carrying the
metric phi^2 dtheta^2 + f^2 dalpha^2, where alpha is the angle between
the two fiber directions.

Both ends of the diameter bracket are certified.  The lower end is the
meridian length, the exact pole-to-pole distance.  The upper end is the
largest, over pairs of colatitudes at fiber angle pi, of the cheapest
explicit path joining them: through either pole, or along a meridian to
an intermediate level L_k, around half of that parallel (length
pi f_k) and back along a meridian.

In arclength coordinates a pair a <= b pays |a - L_k| + |b - L_k| +
pi f_k through route k, and the absolute values resolve into one of
three closed forms, depending on where L_k falls:

* below both (L_k <= a):   (pi f_k - 2 L_k) + (a + b)
* above both (L_k >= b):   (pi f_k + 2 L_k) - (a + b)
* between (a < L_k < b):   pi f_k + (b - a)

With the routes sorted by L_k, the cheapest route of each kind is a
prefix minimum, a suffix minimum and a range minimum, so the cheapest
route of every pair costs O(1) after O(n_routes) set-up per row instead
of a scan over all routes.  The closed forms are equal to the route
costs in exact arithmetic only; `diameter_bounds` uses them to find the
few pairs that can attain the maximum and evaluates those pairs route by
route in the original operand order, so the certified value does not
depend on the rounding of the closed forms.
"""

from __future__ import annotations

import numpy as np

from .grids import PI, cumulative, refine_nodes
from .metrics import WarpedMetric

#: float entries per row block of the pair scan.  At 1 << 15 the 256 KB
#: temporaries kept leaving and re-entering the process: 60 `sequence`
#: calls took 244k minor page faults, against 60k at 64 KB
_BLOCK = 1 << 13


def meridian_arclength(metric: WarpedMetric):
    """Arclength L(theta) = int_0^theta phi along a meridian.

    Returns (values at the metric grid nodes, total length).  The total
    is the exact distance between the two poles: any path joining them
    sweeps every colatitude, so its length is at least int phi dtheta.
    """
    fine = refine_nodes(metric.theta)
    cum = cumulative(metric.phi_at(fine), fine)
    k = (fine.size - 1) // (metric.grid.n - 1)
    return cum[::k], float(cum[-1])


def _route_costs(La, rows, cols, Lk, pf, L_tot):
    """Cheapest path cost of the pairs (La[rows], La[cols]), evaluated
    route by route: min(via a pole, min_k (|a - L_k| + |b - L_k|) + pi f_k).
    """
    a, b = La[rows], La[cols]
    s = a + b
    best = np.minimum(s, 2.0 * L_tot - s)
    route = np.abs(a[:, None] - Lk[None, :]) + np.abs(b[:, None] - Lk[None, :])
    route += pf[None, :]
    return np.minimum(best, route.min(axis=1))


def diameter_bounds(metric: WarpedMetric, n_sample: int = 512,
                    n_routes: int = 512):
    """Certified bracket [lower, upper] for the diameter.

    lower: the pole-to-pole meridian length (exact distance).
    upper: for every pair of colatitudes (a, b) at worst-case fiber
    angle pi, the cheapest of three explicit paths —
      * through the north pole: L(a) + L(b),
      * through the south pole: 2 L_tot - L(a) - L(b),
      * meridian / parallel / meridian via an intermediate level k:
        |L(a) - L(k)| + |L(b) - L(k)| + pi f(k).
    The pair maximum runs over n_sample colatitudes equally spaced in
    arclength; since distance is 1-Lipschitz in each endpoint's
    arclength, adding one full subsample gap keeps the bound valid for
    all pairs.

    The maximum is found in two passes over row blocks of the pairs
    a <= b, which never hold more than _BLOCK floats at once.

    The first pass costs every pair by the closed forms of the module
    docstring, with each route's regime decided by float comparisons of
    the same L(a), L(b) and L(k), so each closed form equals its route
    costs in exact arithmetic.  Rounded, with A the largest |L| and P
    the largest pi f, a closed form is within eps (4 A + P) of the exact
    cost and a route-by-route cost within eps (6 A + P / 2); the two
    differ by at most 2.5 eps (4 A + P).  `slack` = 32 eps (4 A + P)
    covers that more than twelve times over.  The pair attaining the
    route-by-route maximum M has a closed-form cost of at least
    M - slack, and the closed-form maximum is at most M + slack, so that
    pair is among those within 2 slack of the closed-form maximum.

    The second pass evaluates only those pairs route by route, with the
    operands and operation order of a scan over every route and pair:
    (|L(a) - L(k)| + |L(b) - L(k)|) + pi f(k), minimized with the pole
    paths.  A minimum or maximum of floats is one of its arguments,
    whatever the order of the scan, so the largest of these costs is
    the scan's maximum bit for bit, and so is `upper`.
    """
    L_nodes, L_tot = meridian_arclength(metric)
    t = metric.theta
    targets = np.linspace(0.0, L_tot, n_sample)
    theta_s = np.interp(targets, L_nodes, t)
    # the pair maximum does not depend on the order of the samples or of
    # the routes; sorted, the regimes of the routes are contiguous
    La = np.sort(np.interp(theta_s, t, L_nodes))

    route_theta = np.interp(np.linspace(0.0, L_tot, n_routes), L_nodes, t)
    Lk = np.interp(route_theta, t, L_nodes)
    pf = PI * metric.f_at(route_theta)
    order = np.argsort(Lk, kind="stable")
    Lk, pf = Lk[order], pf[order]

    inf = np.array([np.inf])
    below = np.minimum.accumulate(np.concatenate([inf, pf - 2.0 * Lk]))
    above = np.minimum.accumulate(
        np.concatenate([pf + 2.0 * Lk, inf])[::-1])[::-1]
    first_above = np.searchsorted(Lk, La, side="left")    # L_k >= La[j]
    cols = np.arange(n_sample)
    routes = np.arange(n_routes)

    def closed_form(rows):
        """Closed-form costs of the pairs (rows, cols >= rows[0]); pairs
        below the diagonal, which their mirror images cover, read -inf."""
        a = La[rows, None]
        b, j_above = La[None, rows[0]:], first_above[rows[0]:]
        n_below = np.searchsorted(Lk, La[rows], side="right")  # L_k <= a
        s = a + b
        best = np.minimum(s, 2.0 * L_tot - s)
        np.minimum(best, below[n_below][:, None] + s, out=best)
        np.minimum(best, above[j_above][None, :] - s, out=best)
        run = np.full((rows.size, n_routes + 1), np.inf)
        run[:, 1:] = np.where(routes[None, :] >= n_below[:, None], pf, np.inf)
        np.minimum.accumulate(run, axis=1, out=run)
        np.minimum(best, run[:, j_above] + (b - a), out=best)
        best[cols[None, rows[0]:] < rows[:, None]] = -np.inf
        return best

    step = max(1, _BLOCK // max(n_sample, n_routes + 1))
    row_max = np.empty(n_sample)
    for lo in range(0, n_sample, step):
        rows = cols[lo:lo + step]
        row_max[rows] = closed_form(rows).max(axis=1)

    scale = 4.0 * max(np.max(np.abs(La)), np.max(np.abs(Lk))) \
        + np.max(np.abs(pf))
    slack = 32.0 * np.finfo(float).eps * scale
    floor = row_max.max() - 2.0 * slack
    best = -np.inf
    near = cols[row_max >= floor]
    for lo in range(0, near.size, step):
        rows = near[lo:lo + step]
        i, j = np.nonzero(closed_form(rows) >= floor)
        i, j = rows[i], j + rows[0]
        for c in range(0, i.size, step):
            costs = _route_costs(La, i[c:c + step], j[c:c + step],
                                 Lk, pf, L_tot)
            best = max(best, costs.max())

    gap = L_tot / (n_sample - 1)
    upper = float(best) + gap
    lower = L_tot
    return lower, max(upper, lower)
