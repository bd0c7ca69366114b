"""Integral functionals, alignment constants and measurable-set reports.

All integrands are assembled in cancelled form: the radial symmetry
turns every 3-D integral into a 1-D quadrature whose integrand stays
finite at the poles once |u'| is expressed through the bounded field
ratio = |grad u| / sin(theta).  With dV_g = 4 pi phi f^2 dtheta and
|grad u| = ratio * sin(theta):

    int csc^2 |grad u| dV  = 4 pi int ratio phi f (f/sin) dtheta
    int |grad u| dV        = 4 pi int ratio phi f^2 sin dtheta   etc.

Every reader takes one potential and its metric `pot.metric`, whose
node sets `on_grid` and `on_fine` (or slices of them) give phi, f and
their derivatives.  An `Evaluation` refuses a potential whose flux
residual exceeds the guard tolerance, so corrupted inputs surface as
refusals rather than as spurious inequality failures.  The guard runs
once per evaluation, and the check suites share one.  The good-set
report holds the measure of the polar-trimmed aligned set E under g and
under the round metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DomainError, ResidualGuardError
from .grids import ANALYTIC_REFINE, PI, cumulative, simpson_rule
# no longer called here; still importable as functionals.integrate, a
# binding the benchmark's tracer tests look up
from .grids import integrate  # noqa: F401
from .metrics import (NodeSet, WarpedMetric, ball_volume, scalar_curvature,
                      volume)
from .potential import PotentialSolution, flux_residual

#: flux-law residual above which functional evaluation is refused
GUARD_TOL = 1e-3

#: candidate colatitudes scanned by `point_pick`
N_SCAN = 181

#: radii r of the polar masses int_{B(p,r)} csc^3 |grad u| dV_g
POLAR_RADII = (PI / 32, PI / 16, PI / 8)

#: nodes of each polar sub-grid
POLAR_SUBGRID_N = 2001


def require_valid(pot: PotentialSolution) -> None:
    """Garbage-in guard: reject potentials that do not solve the PDE."""
    res = flux_residual(pot)
    if not np.isfinite(res) or res > GUARD_TOL:
        raise ResidualGuardError(
            f"potential rejected: flux residual {res:.3e} exceeds "
            f"{GUARD_TOL:.1e}; functional values would be meaningless")


@dataclass(frozen=True)
class CoreIntegrals:
    i_csc2: float     # int csc^2 |grad u| dV_g
    i_align: float    # int csc^2 (|grad u| + g(grad u, grad theta)) dV_g
    i_mass: float     # int |spacetime Hessian|^2 / |grad u| dV_g
    i_deficit: float  # int (6 - R)^+ |grad u| dV_g
    grad_l1: float
    grad_l2: float


@dataclass(frozen=True)
class AlignmentConstants:
    a: float
    sigma: float
    attained_l1_gap_ratio: float
    attained_l1_gap_u: float


@dataclass(frozen=True)
class ShellSelection:
    sigma_p: float
    sigma_mp: float
    shell_integral_p: float
    shell_integral_mp: float


@dataclass(frozen=True)
class _Fields:
    """Potential fields on the quadrature node set `ns` of the metric."""
    ns: NodeSet
    ratio: np.ndarray    # |grad u| / sin
    du: np.ndarray
    d2u: np.ndarray


def _ratio_on(pot: PotentialSolution) -> np.ndarray:
    """Ratio |grad u|/sin on the metric's refined nodes, by per-cell flux
    propagation.

    Inside every interior cell the ratio obeys
        (log ratio)' = (3 phi - 1) cot(theta) - 2 f'/f,
    so it is rebuilt from the left node value plus an analytic cumulative
    integral -- accurate even when a profile ramp is sharper than the
    node spacing.  The two pole cells (singular cot, f'/f) fall back to
    log interpolation; the ratio is smooth there.
    """
    metric, k = pot.metric, ANALYTIC_REFINE
    t, fine, ns = pot.theta, metric.fine, metric.on_fine
    n = t.size
    logr_nodes = np.log(np.clip(pot.ratio, 1e-300, None))
    inner = slice(1, -1)
    phi_i, f_i, _, df_i, _, _ = (y[inner] for y in ns.jet)
    q = ((3.0 * phi_i - 1.0) * ns.cos[inner] / ns.sin[inner]
         - 2.0 * df_i / f_i)
    cum = cumulative(q, fine[inner])      # zero at fine[1]
    logr = np.empty(fine.size)
    logr[0], logr[-1] = logr_nodes[0], logr_nodes[-1]
    j = np.arange(1, fine.size - 1)
    cell = j // k
    interior = (cell >= 1) & (cell <= n - 3)
    ji = j[interior]
    ci = cell[interior]
    logr[ji] = logr_nodes[ci] + cum[ji - 1] - cum[ci * k - 1]
    jb = j[~interior]
    logr[jb] = np.interp(fine[jb], t, logr_nodes)
    return np.exp(logr)


@dataclass(frozen=True)
class _PolarGrids:
    """The sub-grids [0, r] and [pi - r, pi] of every r in POLAR_RADII,
    in that order, concatenated; they depend on no input."""
    nodes: np.ndarray
    sin_safe: np.ndarray    # sin of the nodes, 1.0 where sin <= 1e-9
    poles: np.ndarray       # indices of the nodes where sin <= 1e-9
    pieces: tuple           # (slice of nodes, its Simpson rule) per grid


@cache
def _polar_grids() -> _PolarGrids:
    """The polar sub-grids, their sines and Simpson rules, built once per
    process on first use."""
    grids = [np.linspace(lo, hi, POLAR_SUBGRID_N) for r in POLAR_RADII
             for lo, hi in ((0.0, r), (PI - r, PI))]
    nodes = np.concatenate(grids)
    sin = np.concatenate([np.sin(s) for s in grids])
    poles = np.flatnonzero(~(sin > 1e-9))
    sin[poles] = 1.0
    pieces = tuple((slice(i * POLAR_SUBGRID_N, (i + 1) * POLAR_SUBGRID_N),
                    simpson_rule(s)) for i, s in enumerate(grids))
    return _PolarGrids(nodes, sin, poles, pieces)


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Minimizer of k -> sum w |v - k|; interval midpoints on ties."""
    order = np.argsort(values)
    v, w = values[order], weights[order]
    cum = np.cumsum(w)
    half = 0.5 * cum[-1]
    i = int(np.searchsorted(cum, half))
    if abs(cum[i] - half) <= 1e-14 * cum[-1] and i + 1 < v.size:
        return 0.5 * (v[i] + v[i + 1])
    return float(v[i])


class Evaluation:
    """One potential, on its metric, and the quantities the suites read.

    The constructor runs the flux-residual guard.  Each property is
    computed on first use and then kept for the life of the evaluation,
    so the suites of one scenario share a single set of refined fields.
    """

    def __init__(self, pot: PotentialSolution):
        require_valid(pot)
        self.metric, self.pot = pot.metric, pot

    @cached_property
    def fields(self) -> _Fields:
        """Quadrature fields, on refined nodes when profiles are analytic.

        Profile ramps (necks, shoulders) can be far sharper than the
        solver grid.  With analytic profiles the integrands are rebuilt
        on refined nodes: the ratio |grad u|/sin is near log-linear per
        cell (flux law), so it is reconstructed by log interpolation, and
        u', u'' follow from |u'| = ratio phi sin and the cancelled-form
        equation u'' = u' (3 phi cot - 2 f'/f + phi'/phi).
        """
        metric, pot = self.metric, self.pot
        ns = metric.quadrature
        if ns is metric.on_grid:
            return _Fields(ns, pot.ratio, pot.du, pot.d2u)
        phi, _, dphi, _, _, _ = ns.jet
        ratio = _ratio_on(pot)
        sgn = 1.0 if pot.u[-1] >= pot.u[0] else -1.0
        du = sgn * ratio * phi * ns.sin
        d2u = sgn * ratio * (3.0 * phi**2 * ns.cos - 2.0 * phi * ns.sf
                             + dphi * ns.sin)
        return _Fields(ns, ratio, du, d2u)

    @cached_property
    def hessian_squared(self) -> np.ndarray:
        """|Hess u + cot |grad u| g|^2 in orthonormal components.

        radial component:    u''/phi^2 - (phi'/phi^3) u' + cot |grad u|
        spherical (twice):   (f'/(phi^2 f)) u'     + cot |grad u|
        with cot |grad u| = ratio * cos in cancelled form.
        """
        fld = self.fields
        phi, _, dphi, _, _, _ = fld.ns.jet
        cot_term = fld.ratio * fld.ns.cos
        h_rad = fld.d2u / phi**2 - dphi * fld.du / phi**3 + cot_term
        # (f' u')/(phi^2 f) = -ratio * (f' sin/f) / phi, finite at the poles
        h_sph = -fld.ratio * fld.ns.sf / phi + cot_term
        return h_rad**2 + 2.0 * h_sph**2

    @property
    def m(self) -> float:
        """The measured deficit m = (deficit norm)^(1/2) of the metric."""
        return self.metric.deficit

    @cached_property
    def core(self) -> CoreIntegrals:
        """The six Lemma-level integrals, by cancelled-form quadrature."""
        fld = self.fields
        ns, simpson, du = fld.ns, fld.ns.simpson, fld.du
        phi, f = ns.jet[:2]

        csc2_integrand = fld.ratio * phi * f * ns.fos
        i_csc2 = 4.0 * PI * simpson(csc2_integrand)
        i_align = 4.0 * PI * simpson(csc2_integrand * (1.0 - 1.0 / phi))

        grad = np.abs(du) / phi                       # |grad u|
        mass_integrand = np.where(grad > 1e-280,
                                  self.hessian_squared
                                  / np.where(grad > 1e-280, grad, 1.0),
                                  0.0) * phi * f**2
        i_mass = 4.0 * PI * simpson(mass_integrand)

        deficit = np.clip(6.0 - scalar_curvature(ns), 0.0, None)
        i_deficit = 4.0 * PI * simpson(deficit * np.abs(du) * f**2)

        grad_l1 = 4.0 * PI * simpson(np.abs(du) * f**2)
        grad_l2 = float(np.sqrt(4.0 * PI * simpson(du**2 * f**2 / phi)))
        return CoreIntegrals(i_csc2=i_csc2, i_align=i_align, i_mass=i_mass,
                             i_deficit=i_deficit, grad_l1=grad_l1,
                             grad_l2=grad_l2)

    @cached_property
    def csc_hessian_l1(self) -> float:
        """int csc(theta) |spacetime Hessian of u| dV_g, cancelled form.

        csc * dV_g collapses to 4 pi phi f (f/sin) dtheta, finite at poles.
        """
        ns = self.fields.ns
        phi, f = ns.jet[:2]
        return 4.0 * PI * ns.simpson(np.sqrt(self.hessian_squared)
                                     * phi * f * ns.fos)

    @cached_property
    def ratio_seminorm(self) -> float:
        """Total variation int |grad(ratio)| dV_g = 4 pi int |ratio'| f^2.

        ratio' comes from the flux law: ratio' = ratio (3 phi cot - cot
        - 2 f'/f), so ratio' f^2 = ratio ((3 phi - 1) cos f (f/sin) - 2 f' f)
        stays finite at the poles.
        """
        fld, ns = self.fields, self.fields.ns
        phi, f, _, df, _, _ = ns.jet
        integrand = np.abs(fld.ratio
                           * ((3.0 * phi - 1.0) * ns.cos * f * ns.fos
                              - 2.0 * df * f))
        return 4.0 * PI * ns.simpson(integrand)

    @cached_property
    def alignment(self) -> AlignmentConstants:
        """a(g), sigma(g) as L^1(dV_g) minimizers over constants."""
        pot, grid = self.pot, self.metric.on_grid
        phi, f = grid.jet[:2]
        w = grid.trapezoid * 4.0 * PI * phi * f**2
        a = max(0.0, weighted_median(pot.ratio, w))
        gap_ratio = float(np.sum(w * np.abs(pot.ratio - a)))
        resid = pot.u - a * grid.cos
        sigma = weighted_median(resid, w)
        gap_u = float(np.sum(w * np.abs(resid - sigma)))
        return AlignmentConstants(a=a, sigma=sigma,
                                  attained_l1_gap_ratio=gap_ratio,
                                  attained_l1_gap_u=gap_u)

    @cached_property
    def shells(self) -> ShellSelection:
        """Minimizing shells in [pi/8, pi/4] near each pole (grid scan) of
        int_{partial B(p,s)} |grad u| dA_g = 4 pi (|u'(s)|/phi) f(s)^2."""
        pot, t = self.pot, self.pot.theta
        phi, f = self.metric.on_grid.jet[:2]
        vals = 4.0 * PI * np.abs(pot.du) / phi * f**2
        near = (t >= PI / 8) & (t <= PI / 4)
        vals_p = vals[near]
        i_p = int(np.argmin(vals_p))
        far = (t >= PI - PI / 4) & (t <= PI - PI / 8)
        vals_m = vals[far]
        i_m = int(np.argmin(vals_m))
        return ShellSelection(sigma_p=float(t[near][i_p]),
                              sigma_mp=float(PI - t[far][i_m]),
                              shell_integral_p=float(vals_p[i_p]),
                              shell_integral_mp=float(vals_m[i_m]))

    @cached_property
    def polar_masses(self) -> dict:
        """{r: (north, south)} of int_{B(p,r)} csc^3 |grad u| dV_g at both
        poles for every r in POLAR_RADII, cancelled form.

        The integrand collapses to 4 pi ratio phi (f/sin)^2 dtheta, which
        is 4 pi dtheta on the round sphere.  The six sub-grids are
        evaluated in one batch: phi and f in one order-0 jet, and f' -- the
        pole limit of f/sin -- only on their pole nodes.
        """
        grids, metric = _polar_grids(), self.metric
        s = grids.nodes
        phi, f = metric.jet(s, 0)
        fos = f / grids.sin_safe
        fos[grids.poles] = metric.jet(s[grids.poles])[3]
        fos = np.abs(fos)
        ratio = np.interp(s, self.pot.theta, self.pot.ratio)
        integrand = ratio * phi * fos**2
        masses = [4.0 * PI * rule(integrand[nodes])
                  for nodes, rule in grids.pieces]
        return {r: (masses[2 * i], masses[2 * i + 1])
                for i, r in enumerate(POLAR_RADII)}

    def polar_csc3(self, r: float):
        """The (north, south) polar masses at a radius r of POLAR_RADII."""
        if r not in POLAR_RADII:
            raise DomainError("polar radius must be one of POLAR_RADII "
                              "(pi/32, pi/16, pi/8)")
        return self.polar_masses[r]


def set_measure(metric: WarpedMetric, mask: np.ndarray,
                use_round: bool = False) -> float:
    """Node-indicator measure of {mask} under dV_g or dV_round."""
    w = metric.on_grid.trapezoid
    dens = 4.0 * PI * (metric.on_grid.sin**2 if use_round
                       else metric.phi * metric.f**2)
    return float(np.sum(w[mask] * dens[mask]))


# ----------------------------------------------------------------------
# sublevels
# ----------------------------------------------------------------------

def _round_cap_volume(s: float) -> float:
    """Round volume of {theta <= s}: 2 pi s - pi sin 2s."""
    return 2.0 * PI * s - PI * np.sin(2.0 * s)


def sublevel_round_volume(pot: PotentialSolution, pole: int, r: float,
                          gamma: float) -> float:
    """Round volume of B^S(p,r) intersected with {u <= gamma}.

    For a monotone radial u this is the round annulus between the level
    colatitude of gamma and r; the mirrored operation at -p (pole=-1)
    uses {u >= -gamma}.
    """
    if not (0.0 <= r <= PI / 8):
        raise DomainError("radius must lie in [0, pi/8]")
    if not (0.0 <= gamma < 1.0):
        raise DomainError("gamma must lie in [0, 1)")
    if pole not in (+1, -1):
        raise DomainError("pole must be +1 or -1")
    # u is decreasing: interpolate its inverse
    u_rev, t_rev = pot.u[::-1], pot.theta[::-1]
    if pole == +1:
        theta_gamma = float(np.interp(gamma, u_rev, t_rev))
        lo, hi = theta_gamma, r
    else:
        theta_gamma = float(np.interp(-gamma, u_rev, t_rev))
        lo, hi = PI - r, theta_gamma
    if hi <= lo:
        return 0.0
    return _round_cap_volume(hi) - _round_cap_volume(lo)


# ----------------------------------------------------------------------
# good sets and point picking
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GoodSetReport:
    tau: float
    t: float
    vol_E_g: float                  # |E_{tau,g,t}| under dV_g
    vol_E_round: float              # |E_{tau,g,t}| under dV_round


def good_set_volumes(pot: PotentialSolution, tau: float, t: float,
                     constants: AlignmentConstants) -> GoodSetReport:
    """Measures of the polar-trimmed aligned region E_{tau,g,t}, with the
    alignment constant a taken from `constants`."""
    if tau < 0.0 or not (0.0 <= t < PI / 2):
        raise DomainError("tau must be >= 0 and t in [0, pi/2)")
    metric, th = pot.metric, pot.theta
    in_E = np.abs(pot.ratio - constants.a) <= tau
    trimmed = in_E & (th >= t) & (th <= PI - t)
    return GoodSetReport(
        tau=tau, t=t,
        vol_E_g=set_measure(metric, trimmed),
        vol_E_round=set_measure(metric, trimmed, use_round=True),
    )


@dataclass(frozen=True)
class PointPickResult:
    q_colat: float
    sum_ball_volumes: float
    certificate_rhs: float
    certificate_ok: bool
    beyond_proof_range: bool


def point_pick(metric: WarpedMetric, r: float) -> PointPickResult:
    """Antipodal pole pair minimizing the two round-ball g-volumes.

    Scans candidate colatitudes q in [0, pi/2]; the certificate compares
    the best pair against 10^12 r^3 V.  Radii above 1e-4 sit outside the
    packing argument's regime and are flagged as such.
    """
    if not (0.0 < r <= 0.5):
        raise DomainError("point-pick radius must lie in (0, 0.5]")
    qs = np.linspace(0.0, PI / 2, N_SCAN)
    sums = np.array([ball_volume(metric, q, r)
                     + ball_volume(metric, PI - q, r) for q in qs])
    i = int(np.argmin(sums))
    rhs = 1e12 * r**3 * volume(metric)
    return PointPickResult(q_colat=float(qs[i]),
                           sum_ball_volumes=float(sums[i]),
                           certificate_rhs=rhs,
                           certificate_ok=bool(sums[i] < rhs),
                           beyond_proof_range=bool(r >= 1e-4))
