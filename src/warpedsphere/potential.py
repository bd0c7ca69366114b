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

`solve_quadrature` evaluates this closed form; `solve_bvp` solves the
flux fixed-point iteratively on a truncated interval and serves as an
independent cross-check.  Both self-report a pointwise PDE residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, IterationError, SolverError
from .grids import ANALYTIC_REFINE, PI, cumulative, integrate
from .metrics import WarpedMetric

#: snap tolerance for recognizing phi(pole) == 1 exactly
_POLE_SNAP = 1e-13

#: pole band (radians) left out of the residual checks of a solution
RESIDUAL_BAND = 0.1

#: nodes per finite-difference stencil of the residual self-check
STENCIL = 9

#: sup-norm step between Picard iterates at which `solve_bvp` stops
PICARD_TOL = 1e-10


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
    iterations: int = 0

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
    fine = metric.fine
    phi, _, dphi, _, _, _ = metric.fine_jet
    p0, ppi = metric.phi[0], metric.phi[-1]
    if abs(p0 - 1.0) < _POLE_SNAP:
        p0 = 1.0
    if abs(ppi - 1.0) < _POLE_SNAP:
        ppi = 1.0
    p_side = np.where(fine < PI / 2, p0, ppi)

    s = metric.fine_sin
    J = metric.fine_cumulative(
        _regular_cot_term(phi, dphi, p_side, s, metric.fine_cos))
    J = J - np.interp(PI / 2, fine, J)

    log_sin = np.log(np.clip(s, 1e-300, None))
    coef = 3.0 * p_side - 3.0
    sin_term = np.where(coef == 0.0, 0.0, coef * log_sin)
    return 3.0 * J + sin_term - 2.0 * np.log(metric.fine_fos), phi


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
    s = metric.fine_sin
    lr_max = float(np.max(lr))
    r = np.exp(lr - lr_max)              # ratio up to the constant K
    dens = r * phi_fine * s              # |u'| up to K
    total = metric.fine_simpson(dens)
    if not np.isfinite(total) or total <= 0.0:
        raise SolverError("degenerate potential normalization")
    K = 2.0 / total                      # so that int u' = -2
    du_fine = -K * dens
    u_fine = 1.0 + metric.fine_cumulative(du_fine)

    sk = slice(None, None, ANALYTIC_REFINE)
    du, u, ratio = du_fine[sk], u_fine[sk], K * r[sk]
    phi, _, dphi, _, _, _ = metric.node_jet
    _, sf = metric.pole_safe(False)
    d2u = du * dphi / phi + ratio * phi * (2.0 * sf
                                           - 3.0 * phi * metric.node_cos)

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


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the truncated-interval BVP solver."""

    epsilon: float = 1e-3
    max_iterations: int = 50
    damping: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.epsilon < PI / 8):
            raise ConfigError("epsilon must lie in (0, pi/8)")
        if not (0.0 < self.damping <= 1.0):
            raise ConfigError("damping must lie in (0, 1]")


def solve_bvp(metric: WarpedMetric,
              cfg: SolverConfig = SolverConfig()) -> PotentialSolution:
    """Damped Picard iteration for the Dirichlet problem on [eps, pi-eps].

    Each pass solves the linear two-point problem obtained by freezing
    the absolute value through the previous iterate's sign pattern,

        ((f^2/phi) u')' + 3 cot(theta) f^2 s_k(theta) u' = 0,
        u(eps) = 1,  u(pi - eps) = -1,   s_k = sign(u_k'),

    with a second-order conservative finite-difference scheme, then
    blends the new solution with the old one by the damping factor.
    (Freezing the full right-hand side -3 cot f^2 |u_k'| instead gives a
    fixed-point map whose linearization has eigenvalues with real part
    above 1 for small eps, so no damping factor converges; keeping u'
    implicit removes that amplification while leaving the fixed point,
    and the nonlinearity re-entered through s_k, intact.)

    The solution is extended to [0, pi] by constant continuation and
    interpolated back onto the metric's grid.
    """
    from scipy.linalg import solve_banded

    eps = cfg.epsilon
    n = metric.grid.n
    tb = np.linspace(eps, PI - eps, n)
    h = tb[1] - tb[0]
    phi, f = metric.jet(tb, 0)
    a = f**2 / phi
    t_mid = 0.5 * (tb[:-1] + tb[1:])
    phm, fm = metric.jet(t_mid, 0)
    a_mid = fm**2 / phm
    c_coef = 3.0 * (np.cos(tb) / np.sin(tb)) * f**2

    u = np.linspace(1.0, -1.0, n)       # affine initial guess
    history = []
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        du = np.gradient(u, tb, edge_order=2)
        sgn = np.where(du > 0.0, 1.0, -1.0)
        ab = np.zeros((3, n))
        rhs = np.zeros(n)
        ab[1, 0] = ab[1, -1] = 1.0
        rhs[0], rhs[-1] = 1.0, -1.0
        adv = c_coef[1:-1] * sgn[1:-1] * h / 2.0
        ab[0, 2:] = a_mid[1:] + adv          # superdiagonal, rows 1..n-2
        ab[2, :-2] = a_mid[:-1] - adv        # subdiagonal
        ab[1, 1:-1] = -(a_mid[:-1] + a_mid[1:])
        u_new = solve_banded((1, 1), ab, rhs)
        delta = float(np.max(np.abs(u_new - u)))
        history.append(delta)
        u = cfg.damping * u_new + (1.0 - cfg.damping) * u
        if delta <= PICARD_TOL:
            u = u_new
            break
    else:
        raise IterationError(
            f"Picard iteration did not reach {PICARD_TOL:.1e} "
            f"in {cfg.max_iterations} steps", history=history)

    du_b = np.gradient(u, tb, edge_order=2)
    t = metric.theta
    u_full = np.interp(t, tb, u, left=1.0, right=-1.0)
    du_full = np.where((t >= eps) & (t <= PI - eps),
                       np.interp(t, tb, du_b), 0.0)
    d2u_full = np.where((t >= eps) & (t <= PI - eps),
                        np.interp(t, tb, np.gradient(du_b, tb, edge_order=2)),
                        0.0)
    phi_t = metric.node_jet[0]
    s = np.clip(metric.node_sin, 1e-300, None)
    ratio = np.abs(du_full) / (phi_t * s)
    i_mid = n // 2
    flux_c = float(a[i_mid] * du_b[i_mid])   # I(pi/2) = 0 in the flux law

    sol = PotentialSolution(metric=metric, u=u_full, du=du_full,
                            d2u=d2u_full, ratio=ratio, method="bvp",
                            flux_constant=flux_c, residual_sup=np.nan,
                            residual_l2=np.nan,
                            residual_band=max(RESIDUAL_BAND, 2 * eps),
                            epsilon=eps, iterations=it)
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
    t, band, metric = sol.theta, sol.residual_band, sol.metric
    b = _band(t, band)
    phi, f = metric.node_jet[:2]
    w = f**2 * sol.du / phi
    sl = slice(max(b.start - 6, 0), min(b.stop + 6, t.size))
    dw = _derivative_high_order(w[sl], t[sl])[b.start - sl.start:
                                              b.stop - sl.start]
    tb, phi, f = t[b], phi[b], f[b]
    cot = metric.node_cos[b] / metric.node_sin[b]
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
    phi, f = metric.node_jet[:2]
    w = f**2 * sol.du / phi
    logw = np.log(np.clip(np.abs(w[b]), 1e-300, None))
    fb = slice(k * b.start, k * (b.stop - 1) + 1)
    target = cumulative(3.0 * metric.fine_jet[0][fb] * metric.fine_cos[fb]
                        / metric.fine_sin[fb], metric.fine[fb])[::k]
    defect = (np.diff(logw) - np.diff(target)) / np.diff(t[b])
    return float(np.max(np.abs(defect)))
