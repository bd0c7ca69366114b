"""Radial comparison potentials.

The potential u solves  Delta_g u + 3 cot(theta) |grad u| = 0 with
u = +1 / -1 at the poles.  For a monotone radial ansatz the flux
w = (f^2/phi) u' satisfies w' = 3 phi cot(theta) w, so

    u'(theta) = C (phi / f^2) exp(3 I(theta)),
    I(theta)  = int_{pi/2}^theta phi cot,

and C is fixed by int u' = -2.  On the round sphere u = cos(theta).

The direct formula overflows badly (I diverges like phi(pole) ln sin at
the poles and exp(3I) can exceed 1e300 for strongly warped metrics), so
everything is assembled in log space around the *cancelled ratio*

    ratio = |grad u| / sin(theta) = |u'| / (phi sin theta),

whose logarithm stays moderate:

    log ratio = 3 J + (3 p - 3) ln sin - 2 ln(f / sin) + log K,

with p the pole value of phi on each side and J the regular part of I.

`solve_quadrature` evaluates this closed form and self-reports a
pointwise PDE residual, computed from the solution samples alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SolverError
from .grids import (ANALYTIC_REFINE, PI, _derivative_high_order,
                    cumulative, integrate)
from .metrics import WarpedMetric

#: snap tolerance for recognizing phi(pole) == 1 exactly
_POLE_SNAP = 1e-13

#: pole band (radians) left out of the residual checks of a solution
RESIDUAL_BAND = 0.1

#: largest PDE residual sup a solved potential may self-report
RESIDUAL_TOL = 1e-4


class PotentialSolution(NamedTuple):
    """A radial potential with the derived fields functionals consume."""

    metric: WarpedMetric
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    ratio: np.ndarray           # |grad u| / sin(theta), poles included
    flux_constant: float        # C in (f^2/phi) u' = C exp(3 int phi cot)
    residual_sup: float
    residual_l2: float

    @property
    def theta(self) -> np.ndarray:
        """The metric's grid nodes, on which every field is sampled."""
        return self.metric.theta


def _regular_cot_term(phi, dphi, p_side, s, c):
    """(phi - p) cot(theta) from the sines s and cosines c of the nodes,
    with the pole limits phi'(pole) filled in."""
    return np.divide((phi - p_side) * c, s, out=dphi.copy(), where=s > 1e-9)


def log_ratio_parts(metric: WarpedMetric):
    """Unnormalized log ratio on the metric's refined nodes.

    Returns (log_ratio, phi_fine).  The additive constant is arbitrary;
    the solver fixes it through the mass normalization.
    """
    fine = metric.on_fine
    phi, _, dphi, _, _, _ = fine.jet
    p0, ppi = metric.phi[0], metric.phi[-1]
    if abs(p0 - 1.0) < _POLE_SNAP:
        p0 = 1.0
    if abs(ppi - 1.0) < _POLE_SNAP:
        ppi = 1.0
    p_side = np.where(fine.t < PI / 2, p0, ppi)

    s = fine.sin
    J = fine.cumulative(_regular_cot_term(phi, dphi, p_side, s, fine.cos))
    J = J - np.interp(PI / 2, fine.t, J)

    log_sin = np.log(np.clip(s, 1e-300, None))
    coef = 3.0 * p_side - 3.0
    sin_term = np.where(coef == 0.0, 0.0, coef * log_sin)
    return 3.0 * J + sin_term - 2.0 * np.log(fine.fos), phi


def solve_quadrature(metric: WarpedMetric) -> PotentialSolution:
    """Closed-form potential via log-space quadrature.

    The result is self-verified: the pointwise PDE residual away from
    the poles must stay below RESIDUAL_TOL or a SolverError is raised.
    """
    lr, phi_fine = log_ratio_parts(metric)
    fine, grid = metric.on_fine, metric.on_grid
    lr_max = float(np.max(lr))
    r = np.exp(lr - lr_max)              # ratio up to the constant K
    dens = r * phi_fine * fine.sin       # |u'| up to K
    total = fine.simpson(dens)
    if not np.isfinite(total) or total <= 0.0:
        raise SolverError("degenerate potential normalization")
    K = 2.0 / total                      # so that int u' = -2
    du_fine = -K * dens
    u_fine = 1.0 + fine.cumulative(du_fine)

    sk = slice(None, None, ANALYTIC_REFINE)
    du, u, ratio = du_fine[sk], u_fine[sk], K * r[sk]
    phi, _, dphi, _, _, _ = grid.jet
    d2u = du * dphi / phi + ratio * phi * (2.0 * grid.sf
                                           - 3.0 * phi * grid.cos)

    sol = PotentialSolution(metric=metric, u=u, du=du, d2u=d2u,
                            ratio=ratio, flux_constant=-K,
                            residual_sup=np.nan, residual_l2=np.nan)
    res = pde_residual(sol)
    if not np.isfinite(res.sup) or res.sup > RESIDUAL_TOL:
        raise SolverError(
            f"quadrature potential failed self-check: residual sup "
            f"{res.sup:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return sol._replace(residual_sup=res.sup, residual_l2=res.l2)


# ----------------------------------------------------------------------
# residual
# ----------------------------------------------------------------------

class ResidualReport(NamedTuple):
    theta: np.ndarray
    residual: np.ndarray
    sup: float
    l2: float


def _band(t: np.ndarray, band: float) -> slice:
    """The nodes of t in [band, pi - band], as a slice."""
    inside = (t >= band) & (t <= PI - band)
    return slice(int(np.argmax(inside)), t.size - int(np.argmax(inside[::-1])))


def pde_residual(sol: PotentialSolution) -> ResidualReport:
    """Pointwise residual of Delta u + 3 cot |grad u| on the band
    [RESIDUAL_BAND, pi - RESIDUAL_BAND].

    Reconstructs the flux w = (f^2/phi) u' from the solution samples and
    differentiates it with 9-point finite differences, so the check is
    independent of how the solution was produced.
    """
    t, grid = sol.theta, sol.metric.on_grid
    b = _band(t, RESIDUAL_BAND)
    phi, f = grid.jet[:2]
    w = f**2 * sol.du / phi
    sl = slice(max(b.start - 6, 0), min(b.stop + 6, t.size))
    dw = _derivative_high_order(w[sl], t[sl])[b.start - sl.start:
                                              b.stop - sl.start]
    tb, phi, f = t[b], phi[b], f[b]
    cot = grid.cos[b] / grid.sin[b]
    resid = (dw - 3.0 * phi * cot * w[b]) / (phi * f**2)
    l2 = float(np.sqrt(max(integrate(resid**2, tb), 0.0)))
    return ResidualReport(theta=tb, residual=resid,
                          sup=float(np.max(np.abs(resid))), l2=l2)


def flux_residual(sol: PotentialSolution) -> float:
    """Cell-averaged defect of the flux law on the RESIDUAL_BAND band.

    Integral (secant) form: per grid cell, compare the increment of
    log|w| for w = (f^2/phi) u' against 3 int phi cot, both per unit
    colatitude.  Equivalent to |d/dtheta log|w| - 3 phi cot| for smooth
    solutions but robust on coarse grids with sharp warp features, and
    insensitive to the huge dynamic range of w.  phi cot is integrated
    on the band's refined nodes.  Used as the garbage-in guard by the
    functional evaluators.
    """
    t, metric, k = sol.theta, sol.metric, ANALYTIC_REFINE
    b = _band(t, RESIDUAL_BAND)
    phi, f = metric.on_grid.jet[:2]
    w = f**2 * sol.du / phi
    logw = np.log(np.clip(np.abs(w[b]), 1e-300, None))
    fb = slice(k * b.start, k * (b.stop - 1) + 1)
    fine = metric.on_fine
    target = cumulative(3.0 * fine.jet[0][fb] * fine.cos[fb] / fine.sin[fb],
                        fine.t[fb])[::k]
    defect = (np.diff(logw) - np.diff(target)) / np.diff(t[b])
    return float(np.max(np.abs(defect)))
