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

`solve_quadrature` evaluates this closed form.  `solve_bvp` serves as an
independent cross-check: under the same monotone ansatz, |u'| = -u', the
equation is linear, and it makes one banded finite-difference solve on a
truncated interval.  Both self-report a pointwise PDE residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, SolverError
from .grids import ANALYTIC_REFINE, PI, cumulative, integrate
from .metrics import WarpedMetric

#: snap tolerance for recognizing phi(pole) == 1 exactly
_POLE_SNAP = 1e-13

#: pole band (radians) left out of the residual checks of a solution
RESIDUAL_BAND = 0.1

#: nodes per finite-difference stencil of the residual self-check
STENCIL = 9


@dataclass(frozen=True)
class PotentialSolution:
    """A radial potential with the derived fields functionals consume."""

    metric: WarpedMetric
    u: np.ndarray
    du: np.ndarray
    d2u: Optional[np.ndarray]
    ratio: np.ndarray           # |grad u| / sin(theta), poles included
    method: str                 # "quadrature" | "bvp"
    flux_constant: float        # C in (f^2/phi) u' = C exp(3 int phi cot)
    residual_sup: float
    residual_l2: float
    residual_band: float
    epsilon: float = 0.0

    @property
    def theta(self) -> np.ndarray:
        """The metric's grid nodes, on which every field is sampled."""
        return self.metric.theta


def _regular_cot_term(phi, dphi, p_side, s, c):
    """(phi - p) cot(theta) from the sines s and cosines c of the nodes,
    with the pole limits phi'(pole) filled in."""
    out = np.empty_like(s)
    safe = s > 1e-9
    out[safe] = (phi[safe] - p_side[safe]) * c[safe] / s[safe]
    out[~safe] = dphi[~safe]
    return out


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


def solve_quadrature(metric: WarpedMetric,
                     residual_tol: float = 1e-4) -> PotentialSolution:
    """Closed-form potential via log-space quadrature.

    The result is self-verified: the pointwise PDE residual away from
    the poles must stay below `residual_tol` or a SolverError is raised.
    A `residual_tol` that is not finite and positive is refused.
    """
    if not (0.0 < residual_tol < np.inf):
        raise DomainError(f"residual_tol {residual_tol} must be finite > 0")
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
                            ratio=ratio, method="quadrature",
                            flux_constant=-K, residual_sup=np.nan,
                            residual_l2=np.nan, residual_band=RESIDUAL_BAND)
    res = pde_residual(sol)
    if not np.isfinite(res.sup) or res.sup > residual_tol:
        raise SolverError(
            f"quadrature potential failed self-check: residual sup "
            f"{res.sup:.3e} exceeds {residual_tol:.1e}")
    return replace(sol, residual_sup=res.sup, residual_l2=res.l2)


def solve_bvp(metric: WarpedMetric,
              epsilon: float = 1e-3) -> PotentialSolution:
    """Finite-difference potential on [epsilon, pi - epsilon].

    Under the monotone ansatz u' <= 0 (the ansatz `solve_quadrature`
    rests on too) |u'| = -u', so the equation is the linear two-point
    problem

        ((f^2/phi) u')' - 3 cot(theta) f^2 u' = 0,
        u(epsilon) = 1,  u(pi - epsilon) = -1.

    One banded solve of its second-order conservative finite-difference
    scheme on a uniform grid of the metric's node count gives u.  The
    solution is extended to [0, pi] by constant continuation and
    interpolated back onto the metric's grid.  An `epsilon` outside
    (0, pi/8) is a ConfigError.
    """
    if not (0.0 < epsilon < PI / 8):
        raise ConfigError("epsilon must lie in (0, pi/8)")
    from scipy.linalg import solve_banded

    n = metric.grid.n
    tb = np.linspace(epsilon, PI - epsilon, n)
    h = tb[1] - tb[0]
    phi, f = metric.jet(tb, 0)
    a = f**2 / phi
    t_mid = 0.5 * (tb[:-1] + tb[1:])
    phm, fm = metric.jet(t_mid, 0)
    a_mid = fm**2 / phm
    c_coef = 3.0 * (np.cos(tb) / np.sin(tb)) * f**2

    ab = np.zeros((3, n))
    rhs = np.zeros(n)
    ab[1, 0] = ab[1, -1] = 1.0
    rhs[0], rhs[-1] = 1.0, -1.0
    adv = -c_coef[1:-1] * h / 2.0
    ab[0, 2:] = a_mid[1:] + adv          # superdiagonal, rows 1..n-2
    ab[2, :-2] = a_mid[:-1] - adv        # subdiagonal
    ab[1, 1:-1] = -(a_mid[:-1] + a_mid[1:])
    u = solve_banded((1, 1), ab, rhs)

    du_b = np.gradient(u, tb, edge_order=2)
    t = metric.theta
    u_full = np.interp(t, tb, u, left=1.0, right=-1.0)
    du_full = np.where((t >= epsilon) & (t <= PI - epsilon),
                       np.interp(t, tb, du_b), 0.0)
    d2u_full = np.where((t >= epsilon) & (t <= PI - epsilon),
                        np.interp(t, tb, np.gradient(du_b, tb, edge_order=2)),
                        0.0)
    phi_t = metric.on_grid.jet[0]
    s = np.clip(metric.on_grid.sin, 1e-300, None)
    ratio = np.abs(du_full) / (phi_t * s)
    i_mid = n // 2
    flux_c = float(a[i_mid] * du_b[i_mid])   # I(pi/2) = 0 in the flux law

    sol = PotentialSolution(metric=metric, u=u_full, du=du_full,
                            d2u=d2u_full, ratio=ratio, method="bvp",
                            flux_constant=flux_c, residual_sup=np.nan,
                            residual_l2=np.nan,
                            residual_band=max(RESIDUAL_BAND, 2 * epsilon),
                            epsilon=epsilon)
    res = pde_residual(sol)
    return replace(sol, residual_sup=res.sup, residual_l2=res.l2)


# ----------------------------------------------------------------------
# residual
# ----------------------------------------------------------------------

def _derivative_high_order(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """High-order first derivative on an arbitrary strictly increasing grid.

    Node i uses the STENCIL nodes centred on it (shifted inward at the
    ends).  Its finite-difference weights come from Fornberg's recursion
    (Fornberg 1988, Math. Comp. 51) for derivative orders 0 and 1, run
    for every node at once: each scalar step of the recursion is one
    array operation over the nodes, and no linear system is solved.
    c1 to c5 keep the names of the paper's algorithm.
    """
    n = x.size
    first = np.clip(np.arange(n) - STENCIL // 2, 0, n - STENCIL)
    xs = [x[first + m] for m in range(STENCIL)]
    w0 = [np.ones(n)] + [None] * (STENCIL - 1)    # interpolation weights
    w1 = [np.zeros(n)] + [None] * (STENCIL - 1)   # first-derivative weights
    c1, c4 = 1.0, xs[0] - x
    for i in range(1, STENCIL):
        c2, c5, c4 = 1.0, c4, xs[i] - x
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 = c2 * c3
            if j == i - 1:
                w1[i] = c1 * (w0[i - 1] - c5 * w1[i - 1]) / c2
                w0[i] = -c1 * c5 * w0[i - 1] / c2
            w1[j] = (c4 * w1[j] - w0[j]) / c3
            w0[j] = c4 * w0[j] / c3
        c1 = c2
    return sum(w * y[first + m] for m, w in enumerate(w1))


@dataclass(frozen=True)
class ResidualReport:
    theta: np.ndarray
    residual: np.ndarray
    sup: float
    l2: float
    band: float


def _band(t: np.ndarray, band: float) -> slice:
    """The nodes of t in [band, pi - band], as a slice."""
    inside = (t >= band) & (t <= PI - band)
    return slice(int(np.argmax(inside)), t.size - int(np.argmax(inside[::-1])))


def pde_residual(sol: PotentialSolution) -> ResidualReport:
    """Pointwise residual of Delta u + 3 cot |grad u| on the solution's
    band [residual_band, pi - residual_band].

    Reconstructs the flux w = (f^2/phi) u' from the solution samples and
    differentiates it with 9-point finite differences, so the check is
    independent of how the solution was produced.
    """
    t, band, grid = sol.theta, sol.residual_band, sol.metric.on_grid
    b = _band(t, band)
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
                          sup=float(np.max(np.abs(resid))), l2=l2, band=band)


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
