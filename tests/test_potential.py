"""Potential solvers: exactness, equivalence, residual guards."""

import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg

from warpedsphere import (PotentialSolution, RadialGrid, flux_residual,
                          pde_residual, round_sphere, solve_bvp,
                          solve_quadrature, tendril_sphere)
from warpedsphere import potential
from warpedsphere.errors import ConfigError, ResidualGuardError
from warpedsphere.functionals import require_valid
from warpedsphere.grids import ANALYTIC_REFINE, PI, cumulative, integrate, \
    refine_nodes

from conftest import ORACLE_CASES, REFERENCE_BUILDERS, REFERENCE_NAMES


class TestRoundExactness:
    def test_u_is_cosine(self, round_potential):
        exact = np.cos(round_potential.theta)
        assert np.max(np.abs(round_potential.u - exact)) < 1e-10

    def test_ratio_is_one(self, round_potential):
        assert np.max(np.abs(round_potential.ratio - 1.0)) < 1e-8

    def test_boundary_values(self, round_potential):
        assert round_potential.u[0] == pytest.approx(1.0, abs=1e-12)
        assert round_potential.u[-1] == pytest.approx(-1.0, abs=1e-12)

    def test_runtime_under_a_second(self):
        metric = round_sphere(grid=RadialGrid.uniform(2001))
        start = time.perf_counter()
        solve_quadrature(metric)
        assert time.perf_counter() - start < 1.0


class TestMaximumPrinciple:
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_monotone_in_range(self, reference_potentials, name):
        pot = reference_potentials[name]
        assert np.all(pot.u <= 1.0 + 1e-12)
        assert np.all(pot.u >= -1.0 - 1e-12)
        assert np.all(np.diff(pot.u) <= 1e-12)  # decreasing


class TestResiduals:
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_quadrature_flux_residual_small(self, reference_potentials, name):
        res = flux_residual(reference_potentials[name])
        assert res < 1e-4

    def test_pde_residual_small_on_round(self, round_potential):
        rep = pde_residual(round_potential)
        assert rep.sup < 1e-6

    def test_corrupted_potential_flagged(self, round_potential):
        t = round_potential.theta
        s = np.clip(np.sin(t), 1e-12, None)
        bad = dataclasses.replace(
            round_potential, u=np.cos(2.0 * t), du=-2.0 * np.sin(2.0 * t),
            d2u=-4.0 * np.cos(2.0 * t),
            ratio=np.abs(-2.0 * np.sin(2.0 * t) / s))
        assert flux_residual(bad) > 1e2


def _flux_residual_oracle(pot, band=0.1):
    """The flux guard with the profile evaluated again on the refined
    band nodes, as it was computed before it sliced the refined jet."""
    metric, t = pot.metric, pot.theta
    mask = (t >= band) & (t <= PI - band)
    tm = t[mask]
    phi, f = metric.on_grid.jet[:2]
    w = f**2 * pot.du / phi
    logw = np.log(np.clip(np.abs(w[mask]), 1e-300, None))
    x = refine_nodes(tm)
    target = cumulative(3.0 * metric.jet(x, 0)[0] * np.cos(x) / np.sin(x),
                        x)[::ANALYTIC_REFINE]
    defect = (np.diff(logw) - np.diff(target)) / np.diff(tm)
    return float(np.max(np.abs(defect)))


def _pde_residual_oracle(pot):
    """The residual on the whole grid, masked to the band afterwards."""
    t, band = pot.theta, pot.residual_band
    mask = (t >= band) & (t <= PI - band)
    phi, f = pot.metric.on_grid.jet[:2]
    w = f**2 * pot.du / phi
    lo, hi = np.argmax(mask), t.size - np.argmax(mask[::-1])
    sl = slice(max(lo - 6, 0), min(hi + 6, t.size))
    dw = np.full_like(t, np.nan)
    dw[sl] = potential._derivative_high_order(w[sl], t[sl])
    cot = np.zeros_like(t)
    cot[mask] = np.cos(t[mask]) / np.sin(t[mask])
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = ((dw - 3.0 * phi * cot * w) / (phi * f**2))[mask]
    l2 = float(np.sqrt(max(integrate(resid**2, t[mask]), 0.0)))
    return resid, float(np.max(np.abs(resid))), l2


class TestSlicedReaders:
    """The residual readers slice the jets the metric caches; the bits
    equal those of evaluating the profiles again on the slice's nodes."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_flux_residual_equals_oracle(self, oracle_solutions, case):
        pot = oracle_solutions(case)
        assert flux_residual(pot) == _flux_residual_oracle(pot)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_pde_residual_equals_oracle(self, oracle_solutions, case):
        pot = oracle_solutions(case)
        rep = pde_residual(pot)
        resid, sup, l2 = _pde_residual_oracle(pot)
        assert np.array_equal(rep.residual, resid)
        assert (rep.sup, rep.l2) == (sup, l2) == (pot.residual_sup,
                                                  pot.residual_l2)
        assert rep.band == pot.residual_band

    def test_theta_is_the_metric_grid(self, round_potential):
        assert round_potential.theta is round_potential.metric.theta


class TestSolverEquivalence:
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_bvp_matches_quadrature(self, reference_metrics,
                                    reference_potentials, name):
        metric = reference_metrics[name]
        pot_b = solve_bvp(metric, epsilon=1e-3)
        gap = np.max(np.abs(pot_b.u - reference_potentials[name].u))
        assert gap < 5e-4

    def test_bvp_epsilon_insensitive_on_round(self, round_metric,
                                              round_potential):
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            pot = solve_bvp(round_metric, epsilon=eps)
            gaps.append(np.max(np.abs(pot.u - round_potential.u)))
        assert max(gaps) < 5e-4

    def test_refinement_order_two(self):
        # gap(h) against the analytic solution should shrink like h^2
        gaps = []
        for n in (251, 501, 1001):
            metric = round_sphere(grid=RadialGrid.uniform(n))
            pot = solve_bvp(metric, epsilon=1e-3)
            gaps.append(np.max(np.abs(pot.u - np.cos(pot.theta))))
        order = np.log2(gaps[0] / gaps[2]) / 2.0
        assert 1.7 <= order <= 2.3


class TestBvpEpsilon:
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, np.nan])
    def test_bad_epsilon_rejected(self, round_metric, epsilon):
        with pytest.raises(ConfigError):
            solve_bvp(round_metric, epsilon=epsilon)


def _picard_oracle(metric, epsilon=1e-3, max_iterations=50, damping=0.5,
                   tol=1e-10):
    """The reference bvp solver: a damped Picard loop.

    Each pass freezes |u'| through the sign pattern s_k = sign(u_k') of
    the previous iterate, solves the linear problem
    ((f^2/phi) u')' + 3 cot f^2 s_k u' = 0 with u(eps) = 1 and
    u(pi - eps) = -1, and blends the new solution with the old by
    `damping`, until two iterates differ by at most `tol` in the sup
    norm.  Returns the solution built exactly as `solve_bvp` builds it,
    or None where `max_iterations` passes do not reach `tol`.
    """
    eps = epsilon
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
    for _ in range(max_iterations):
        du = np.gradient(u, tb, edge_order=2)
        sgn = np.where(du > 0.0, 1.0, -1.0)
        ab = np.zeros((3, n))
        rhs = np.zeros(n)
        ab[1, 0] = ab[1, -1] = 1.0
        rhs[0], rhs[-1] = 1.0, -1.0
        adv = c_coef[1:-1] * sgn[1:-1] * h / 2.0
        ab[0, 2:] = a_mid[1:] + adv
        ab[2, :-2] = a_mid[:-1] - adv
        ab[1, 1:-1] = -(a_mid[:-1] + a_mid[1:])
        u_new = scipy.linalg.solve_banded((1, 1), ab, rhs)
        delta = float(np.max(np.abs(u_new - u)))
        u = damping * u_new + (1.0 - damping) * u
        if delta <= tol:
            u = u_new
            break
    else:
        return None

    du_b = np.gradient(u, tb, edge_order=2)
    t = metric.theta
    inside = (t >= eps) & (t <= PI - eps)
    du_full = np.where(inside, np.interp(t, tb, du_b), 0.0)
    d2u_full = np.where(
        inside, np.interp(t, tb, np.gradient(du_b, tb, edge_order=2)), 0.0)
    s = np.clip(metric.on_grid.sin, 1e-300, None)
    sol = PotentialSolution(
        metric=metric, u=np.interp(t, tb, u, left=1.0, right=-1.0),
        du=du_full, d2u=d2u_full,
        ratio=np.abs(du_full) / (metric.on_grid.jet[0] * s), method="bvp",
        flux_constant=float(a[n // 2] * du_b[n // 2]), residual_sup=np.nan,
        residual_l2=np.nan,
        residual_band=max(potential.RESIDUAL_BAND, 2 * eps), epsilon=eps)
    res = pde_residual(sol)
    return dataclasses.replace(sol, residual_sup=res.sup, residual_l2=res.l2)


def _guard_accepts(pot):
    try:
        require_valid(pot)
    except ResidualGuardError:
        return False
    return True


class TestOneBandedSolve:
    """The bvp solver makes one banded solve with u' <= 0 assumed.  On
    monotone solutions the damped Picard loop it replaced solved that
    same system on every pass and returned the first solve's result, so
    every field agrees bit for bit.  Where the loop visited another sign
    pattern or did not converge, the guard's verdict is still the same:
    the single solve is refused wherever the loop failed."""

    FIELDS = ("u", "du", "d2u", "ratio", "residual_sup", "residual_l2",
              "flux_constant")

    @pytest.mark.parametrize("case", [c for c in ORACLE_CASES
                                      if c.endswith("-bvp")])
    def test_equals_picard_oracle(self, oracle_solutions, case):
        pot = oracle_solutions(case)
        ref = _picard_oracle(pot.metric)
        for field in self.FIELDS:
            assert np.array_equal(getattr(pot, field), getattr(ref, field))

    # the guard refuses every family at n <= 1001; at 4001 it accepts
    # round, bump and the bubble at eps 0.1 as well
    @pytest.mark.parametrize("n", [101, 501, 1001, 4001])
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_same_guard_verdict(self, name, n):
        metric = REFERENCE_BUILDERS[name](RadialGrid.uniform(n))
        for eps in (1e-5, 1e-3, 0.1):
            ref = _picard_oracle(metric, eps)
            expected = ref is not None and _guard_accepts(ref)
            assert _guard_accepts(solve_bvp(metric, eps)) == expected

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_one_banded_solve_per_call(self, reference_metrics, monkeypatch,
                                       name):
        calls = []
        real = scipy.linalg.solve_banded

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_banded", counted)
        solve_bvp(reference_metrics[name])
        assert calls == [(1, 1)]


class TestGradedGrid:
    def test_quadrature_on_graded_nodes(self):
        metric = round_sphere(grid=RadialGrid.graded(801))
        pot = solve_quadrature(metric)
        assert np.max(np.abs(pot.u - np.cos(pot.theta))) < 1e-9


def _fornberg_weights(x, x0, m=1):
    """Finite-difference weights for the m-th derivative at x0 (Fornberg)."""
    n = x.size
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _recursion_stencils(x, stencil=9):
    """(slice, weights) of every node, by Fornberg's recursion."""
    n = x.size
    half = stencil // 2
    out = []
    for i in range(n):
        lo = min(max(i - half, 0), n - stencil)
        sl = slice(lo, lo + stencil)
        out.append((sl, _fornberg_weights(x[sl], x[i])))
    return out


def _derivative_by_recursion(y, x, stencil=9):
    """Oracle: the first derivative, one node at a time."""
    return np.array([w @ y[sl] for sl, w in _recursion_stencils(x, stencil)])


class TestHighOrderDerivative:
    """The array-wide recursion against Fornberg's recursion node by node.

    Both evaluate sum_m w_m y_m with weights that carry rounding errors,
    so at each node they can differ by a few eps sum_m |w_m| max|y|.  The
    tolerance is 16 times that.  Per unit of max|y| it is 1e-10 on
    uniform grids (9e-11 at n = 1001 to 4e-10 at n = 4001, at the
    one-sided stencils of the ends), and larger only where a stencil is
    ill-conditioned: the closely spaced nodes of a graded grid at the
    poles, and the enriched tendril grid, which has neighbouring gaps of
    2e-7 and 4e-4.
    """

    GRIDS = {
        "uniform-1001": lambda: RadialGrid.uniform(1001).nodes,
        "uniform-2001": lambda: RadialGrid.uniform(2001).nodes,
        "uniform-4001": lambda: RadialGrid.uniform(4001).nodes,
        "graded-2001": lambda: RadialGrid.graded(2001).nodes,
        "tendril-enriched": lambda: tendril_sphere(2.0, 0.1, 0.3).theta,
    }

    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_matches_recursion_on_smooth_data(self, grid):
        x = self.GRIDS[grid]()
        stencils = _recursion_stencils(x)
        size = np.array([np.abs(w).sum() for _, w in stencils])
        for y in (np.sin(3.0 * x), np.exp(x) * np.cos(x)):
            fast = potential._derivative_high_order(y, x)
            slow = np.array([w @ y[sl] for sl, w in stencils])
            tol = 16.0 * np.finfo(float).eps * size * np.max(np.abs(y))
            assert np.all(np.abs(fast - slow) <= tol)

    @pytest.mark.parametrize("grid", ["uniform-1001", "uniform-4001",
                                      "graded-2001", "tendril-enriched"])
    def test_exact_on_polynomials(self, grid):
        # nine-node weights differentiate every polynomial of degree <= 8
        # exactly, so only the rounding of the weighted sum remains
        x = self.GRIDS[grid]()
        size = np.array([np.abs(w).sum() for _, w in _recursion_stencils(x)])
        for d in range(9):
            y = x**d
            exact = d * x ** (d - 1) if d else np.zeros_like(x)
            fast = potential._derivative_high_order(y, x)
            tol = 16.0 * np.finfo(float).eps * size * np.max(np.abs(y))
            assert np.all(np.abs(fast - exact) <= tol)

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_residual_sup_unmoved(self, reference_potentials, monkeypatch,
                                  name):
        pot = reference_potentials[name]
        monkeypatch.setattr(potential, "_derivative_high_order",
                            _derivative_by_recursion)
        slow = pde_residual(pot).sup
        assert abs(pot.residual_sup - slow) < 1e-8
        assert pot.residual_sup < 1e-2 * 1e-4   # residual_tol is 1e-4
