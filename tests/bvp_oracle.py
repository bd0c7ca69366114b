"""Finite-difference oracles of the radial potential, for the tests only.

`solve_quadrature` evaluates the potential's first integral.  The
solvers here reach the same potential another way: under the monotone
ansatz |u'| = -u' the equation is linear, and a second-order
conservative finite-difference scheme on the truncated interval
[epsilon, pi - epsilon] solves it.  `solve_bvp` makes one banded solve
with that sign fixed; `picard_bvp` is the damped Picard loop that freezes
the sign of each iterate's u' instead.  Both need scipy.
"""

import numpy as np
import scipy.linalg

from warpedsphere import PotentialSolution, pde_residual
from warpedsphere.grids import PI


def _scheme(metric, epsilon):
    """The uniform nodes of [epsilon, pi - epsilon] (as many as the
    metric's grid) and the scheme's coefficients on them: the flux
    weight f^2/phi at the nodes and at the cell midpoints, and the
    advection coefficient 3 cot f^2."""
    n = metric.grid.n
    tb = np.linspace(epsilon, PI - epsilon, n)
    phi, f = metric.jet(tb, 0)
    t_mid = 0.5 * (tb[:-1] + tb[1:])
    phm, fm = metric.jet(t_mid, 0)
    return (tb, f**2 / phi, fm**2 / phm,
            3.0 * (np.cos(tb) / np.sin(tb)) * f**2)


def _banded_solve(a_mid, adv):
    """u with u(epsilon) = 1, u(pi - epsilon) = -1 from one banded solve
    of the scheme whose interior advection terms are `adv`."""
    n = a_mid.size + 1
    ab = np.zeros((3, n))
    rhs = np.zeros(n)
    ab[1, 0] = ab[1, -1] = 1.0
    rhs[0], rhs[-1] = 1.0, -1.0
    ab[0, 2:] = a_mid[1:] + adv          # superdiagonal, rows 1..n-2
    ab[2, :-2] = a_mid[:-1] - adv        # subdiagonal
    ab[1, 1:-1] = -(a_mid[:-1] + a_mid[1:])
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def _solution(metric, epsilon, tb, a, u):
    """The potential of the samples u on tb: extended to [0, pi] by
    constant continuation, interpolated onto the metric's grid, with
    its flux constant read at the middle node (I(pi/2) = 0 in the flux
    law) and its PDE residual self-reported."""
    du_b = np.gradient(u, tb, edge_order=2)
    t = metric.theta
    inside = (t >= epsilon) & (t <= PI - epsilon)
    du_full = np.where(inside, np.interp(t, tb, du_b), 0.0)
    d2u_full = np.where(
        inside, np.interp(t, tb, np.gradient(du_b, tb, edge_order=2)), 0.0)
    s = np.clip(metric.on_grid.sin, 1e-300, None)
    i_mid = tb.size // 2
    sol = PotentialSolution(
        metric=metric, u=np.interp(t, tb, u, left=1.0, right=-1.0),
        du=du_full, d2u=d2u_full,
        ratio=np.abs(du_full) / (metric.on_grid.jet[0] * s),
        flux_constant=float(a[i_mid] * du_b[i_mid]), residual_sup=np.nan,
        residual_l2=np.nan)
    res = pde_residual(sol)
    return sol._replace(residual_sup=res.sup, residual_l2=res.l2)


def solve_bvp(metric, epsilon=1e-3):
    """The potential from one banded solve with u' <= 0 assumed, so that
    |u'| = -u' and the problem

        ((f^2/phi) u')' - 3 cot(theta) f^2 u' = 0,
        u(epsilon) = 1,  u(pi - epsilon) = -1

    is linear."""
    tb, a, a_mid, c_coef = _scheme(metric, epsilon)
    h = tb[1] - tb[0]
    adv = -c_coef[1:-1] * h / 2.0
    return _solution(metric, epsilon, tb, a, _banded_solve(a_mid, adv))


def picard_bvp(metric, epsilon=1e-3, max_iterations=50, damping=0.5,
               tol=1e-10):
    """The potential from a damped Picard loop, or None where
    `max_iterations` passes do not reach `tol`.

    Each pass freezes |u'| through the sign pattern s_k = sign(u_k') of
    the previous iterate, solves the linear problem
    ((f^2/phi) u')' + 3 cot f^2 s_k u' = 0 with u(epsilon) = 1 and
    u(pi - epsilon) = -1, and blends the new solution with the old by
    `damping`, until two iterates differ by at most `tol` in the sup
    norm.
    """
    tb, a, a_mid, c_coef = _scheme(metric, epsilon)
    h = tb[1] - tb[0]
    u = np.linspace(1.0, -1.0, tb.size)       # affine initial guess
    for _ in range(max_iterations):
        du = np.gradient(u, tb, edge_order=2)
        sgn = np.where(du > 0.0, 1.0, -1.0)
        u_new = _banded_solve(a_mid, c_coef[1:-1] * sgn[1:-1] * h / 2.0)
        delta = float(np.max(np.abs(u_new - u)))
        u = damping * u_new + (1.0 - damping) * u
        if delta <= tol:
            return _solution(metric, epsilon, tb, a, u_new)
    return None
