"""The trigonometric and pole-safe fields a metric caches per node set.

The readers of `potential`, `functionals` and `verification` take sin,
cos and f/sin from the metric's `node_*`/`fine_*` caches or from slices
of them, and build sin f'/f from those.  The oracles below are the
formulas as they read before those caches existed, calling np.sin and
np.cos afresh on each node set or slice; every value must equal them
bit for bit.
"""

from functools import cached_property

import numpy as np
import pytest

from warpedsphere import (RadialGrid, flux_residual, load_profile_table,
                          save_profile_table, solve_quadrature)
from warpedsphere import verification
from warpedsphere.functionals import (Evaluation, _Fields, set_measure,
                                      weighted_median)
from warpedsphere.grids import ANALYTIC_REFINE, PI, cumulative, node_weights
from warpedsphere.metrics import validate
from warpedsphere.potential import (RESIDUAL_BAND, _POLE_SNAP, _band,
                                    _derivative_high_order)

from conftest import REFERENCE_BUILDERS, REFERENCE_NAMES

#: (reference, grid) cases: the five families on uniform and graded
#: grids, tendril on its own grid, and two sampled tables
CASES = tuple(f"{name}-{kind}" for name in REFERENCE_NAMES
              for kind in ("uniform", "graded")) + (
    "tendril-enriched", "bump-table", "bubble-table")


@pytest.fixture(scope="module")
def solutions(tmp_path_factory):
    cache = {}

    def solution(case):
        if case not in cache:
            name, kind = case.split("-")
            if kind in ("uniform", "graded"):
                metric = REFERENCE_BUILDERS[name](
                    getattr(RadialGrid, kind)(1001))
            else:
                metric = REFERENCE_BUILDERS[name]()
            if kind == "table":
                path = tmp_path_factory.mktemp("tables") / f"{name}.txt"
                save_profile_table(metric, path)
                metric = load_profile_table(path)
            cache[case] = solve_quadrature(metric)
        return cache[case]

    return solution


# ----------------------------------------------------------------------
# the pre-cache formulas, kept here only as oracles
# ----------------------------------------------------------------------

def _f_over_sin(t, f, df):
    s = np.sin(t)
    out = np.empty_like(s)
    safe = s > 1e-9
    out[safe] = f[safe] / s[safe]
    out[~safe] = df[~safe]
    return np.abs(out)


def _sin_fprime_over_f(t, f, df, fos):
    sgn = np.where(t <= PI / 2, 1.0, -1.0)
    s = np.sin(t)
    out = np.empty_like(s)
    safe = np.abs(f) > 1e-12
    out[safe] = s[safe] * df[safe] / f[safe]
    out[~safe] = sgn[~safe] * np.abs(df[~safe]) / fos[~safe]
    return out


def _regular_cot_term(phi, dphi, p_side, t):
    s = np.sin(t)
    out = np.empty_like(t)
    safe = s > 1e-9
    out[safe] = (phi[safe] - p_side[safe]) * np.cos(t[safe]) / s[safe]
    out[~safe] = dphi[~safe]
    return out


def _solve_quadrature(metric):
    """(u, du, d2u, ratio, residual_sup) of the quadrature solve."""
    fine = metric.fine
    phi, f, dphi, df, _, _ = metric.fine_jet
    p0, ppi = metric.phi[0], metric.phi[-1]
    if abs(p0 - 1.0) < _POLE_SNAP:
        p0 = 1.0
    if abs(ppi - 1.0) < _POLE_SNAP:
        ppi = 1.0
    p_side = np.where(fine < PI / 2, p0, ppi)
    J = metric.fine_cumulative(_regular_cot_term(phi, dphi, p_side, fine))
    J = J - np.interp(PI / 2, fine, J)
    log_sin = np.log(np.clip(np.sin(fine), 1e-300, None))
    coef = 3.0 * p_side - 3.0
    sin_term = np.where(coef == 0.0, 0.0, coef * log_sin)
    lr = 3.0 * J + sin_term - 2.0 * np.log(_f_over_sin(fine, f, df))

    s = np.sin(fine)
    r = np.exp(lr - float(np.max(lr)))
    dens = r * phi * s
    K = 2.0 / metric.fine_simpson(dens)
    du_fine = -K * dens
    u_fine = 1.0 + metric.fine_cumulative(du_fine)
    sk = slice(None, None, ANALYTIC_REFINE)
    t = metric.theta
    du, u, ratio = du_fine[sk], u_fine[sk], K * r[sk]
    phi, f, dphi, df, _, _ = metric.node_jet
    sf = _sin_fprime_over_f(t, f, df, _f_over_sin(t, f, df))
    d2u = du * dphi / phi + ratio * phi * (2.0 * sf - 3.0 * phi * np.cos(t))
    return u, du, d2u, ratio, _residual_sup(metric, du)


def _residual_sup(metric, du):
    t = metric.theta
    b = _band(t, RESIDUAL_BAND)
    phi, f = metric.node_jet[:2]
    w = f**2 * du / phi
    sl = slice(max(b.start - 6, 0), min(b.stop + 6, t.size))
    dw = _derivative_high_order(w[sl], t[sl])[b.start - sl.start:
                                              b.stop - sl.start]
    tb, phi, f = t[b], phi[b], f[b]
    cot = np.cos(tb) / np.sin(tb)
    resid = (dw - 3.0 * phi * cot * w[b]) / (phi * f**2)
    return float(np.max(np.abs(resid)))


def _flux_residual(pot):
    t, metric, k = pot.theta, pot.metric, ANALYTIC_REFINE
    b = _band(t, RESIDUAL_BAND)
    phi, f = metric.node_jet[:2]
    w = f**2 * pot.du / phi
    logw = np.log(np.clip(np.abs(w[b]), 1e-300, None))
    fb = slice(k * b.start, k * (b.stop - 1) + 1)
    x = metric.fine[fb]
    target = cumulative(3.0 * metric.fine_jet[0][fb] * np.cos(x) / np.sin(x),
                        x)[::k]
    defect = (np.diff(logw) - np.diff(target)) / np.diff(t[b])
    return float(np.max(np.abs(defect)))


def _ratio_on(pot):
    t, fine, k = pot.theta, pot.metric.fine, ANALYTIC_REFINE
    n = t.size
    logr_nodes = np.log(np.clip(pot.ratio, 1e-300, None))
    inner = fine[1:-1]
    phi_i, f_i, _, df_i, _, _ = (y[1:-1] for y in pot.metric.fine_jet)
    q = ((3.0 * phi_i - 1.0) * np.cos(inner) / np.sin(inner)
         - 2.0 * df_i / f_i)
    cum = cumulative(q, inner)
    logr = np.empty(fine.size)
    logr[0], logr[-1] = logr_nodes[0], logr_nodes[-1]
    j = np.arange(1, fine.size - 1)
    cell = j // k
    interior = (cell >= 1) & (cell <= n - 3)
    ji, ci = j[interior], cell[interior]
    logr[ji] = logr_nodes[ci] + cum[ji - 1] - cum[ci * k - 1]
    jb = j[~interior]
    logr[jb] = np.interp(fine[jb], t, logr_nodes)
    return np.exp(logr)


class _OracleEvaluation(Evaluation):
    """An Evaluation whose trig readers use the pre-cache formulas; the
    properties built on them (core, csc_hessian_l1) follow."""

    @cached_property
    def fields(self):
        metric, pot = self.metric, self.pot
        refined = metric.profiles is not None
        t, (phi, f, dphi, df, _, _) = metric.nodes_and_jet(refined)
        fos = _f_over_sin(t, f, df)
        sf = _sin_fprime_over_f(t, f, df, fos)
        if not refined:
            return _Fields(False, t, phi, f, dphi, df, np.cos(t), fos, sf,
                           pot.ratio, pot.du, pot.d2u)
        ratio = _ratio_on(pot)
        sgn = 1.0 if pot.u[-1] >= pot.u[0] else -1.0
        s = np.sin(t)
        du = sgn * ratio * phi * s
        d2u = sgn * ratio * (3.0 * phi**2 * np.cos(t)
                             - 2.0 * phi * sf + dphi * s)
        return _Fields(True, t, phi, f, dphi, df, np.cos(t), fos, sf,
                       ratio, du, d2u)

    @cached_property
    def hessian_squared(self):
        fld = self.fields
        cot_term = fld.ratio * np.cos(fld.theta)
        h_rad = (fld.d2u / fld.phi**2 - fld.dphi * fld.du / fld.phi**3
                 + cot_term)
        h_sph = -fld.ratio * fld.sf / fld.phi + cot_term
        return h_rad**2 + 2.0 * h_sph**2

    @property
    def ratio_seminorm(self):
        fld = self.fields
        t, f = fld.theta, fld.f
        integrand = np.abs(fld.ratio
                           * ((3.0 * fld.phi - 1.0) * np.cos(t) * f * fld.fos
                              - 2.0 * fld.df * f))
        return 4.0 * PI * self._simpson(integrand)

    @property
    def alignment(self):
        pot = self.pot
        t = pot.theta
        phi, f = self.metric.node_jet[:2]
        w = node_weights(t) * 4.0 * PI * phi * f**2
        a = max(0.0, weighted_median(pot.ratio, w))
        gap_ratio = float(np.sum(w * np.abs(pot.ratio - a)))
        resid = pot.u - a * np.cos(t)
        sigma = weighted_median(resid, w)
        gap_u = float(np.sum(w * np.abs(resid - sigma)))
        return (a, sigma, gap_ratio, gap_u)


def _witness_measure(pot, a, sigma, r, tau, gamma, pole):
    th = pot.theta
    aligned = np.abs(pot.u - a * np.cos(th) - sigma) <= tau
    if pole > 0:
        mask = aligned & (pot.u > gamma) & (th <= r)
    else:
        mask = aligned & (pot.u < -gamma) & (th >= PI - r)
    w = node_weights(th)
    dens = 4.0 * PI * np.sin(th)**2
    return float(np.sum(w[mask] * dens[mask]))


# ----------------------------------------------------------------------
# bitwise equality with the oracles
# ----------------------------------------------------------------------

def _same(got, want):
    return np.array_equal(got, want) and np.asarray(got).dtype == \
        np.asarray(want).dtype


class TestBitwiseOracle:
    @pytest.mark.parametrize("case", CASES)
    def test_solve_quadrature(self, solutions, case):
        pot = solutions(case)
        u, du, d2u, ratio, sup = _solve_quadrature(pot.metric)
        for got, want in ((pot.u, u), (pot.du, du), (pot.d2u, d2u),
                          (pot.ratio, ratio)):
            assert _same(got, want)
        assert pot.residual_sup == sup

    @pytest.mark.parametrize("case", CASES)
    def test_flux_residual(self, solutions, case):
        pot = solutions(case)
        assert flux_residual(pot) == _flux_residual(pot)

    @pytest.mark.parametrize("case", CASES)
    def test_evaluation_properties(self, solutions, case):
        pot = solutions(case)
        ev, oracle = Evaluation(pot), _OracleEvaluation(pot)
        fld, want = ev.fields, oracle.fields
        assert fld.refined == want.refined
        for name in ("theta", "phi", "f", "dphi", "df", "cos", "fos", "sf",
                     "ratio", "du", "d2u"):
            assert _same(getattr(fld, name), getattr(want, name)), name
        assert _same(ev.hessian_squared, oracle.hessian_squared)
        assert ev.ratio_seminorm == oracle.ratio_seminorm
        ac = ev.alignment
        assert (ac.a, ac.sigma, ac.attained_l1_gap_ratio,
                ac.attained_l1_gap_u) == oracle.alignment
        assert ev.core == oracle.core
        assert ev.csc_hessian_l1 == oracle.csc_hessian_l1
        assert ev.m == oracle.m and ev.shells == oracle.shells
        for r in verification._POLAR_RADII:
            assert ev.polar_csc3(r) == oracle.polar_csc3(r)

    @pytest.mark.parametrize("case", CASES)
    def test_set_measures_and_validation(self, solutions, case):
        pot = solutions(case)
        metric, t = pot.metric, pot.theta
        ac = Evaluation(pot).alignment
        for r, tau, gamma in ((PI / 8, 0.05, 0.5), (1.0, 0.2, 0.0)):
            for pole in (+1, -1):
                assert verification._witness_measure(
                    pot, ac.a, ac.sigma, r, tau, gamma, pole) == \
                    _witness_measure(pot, ac.a, ac.sigma, r, tau, gamma, pole)
        mask = t < 1.0
        dens = 4.0 * PI * np.sin(t)**2
        assert set_measure(metric, mask, use_round=True) == float(
            np.sum(node_weights(t)[mask] * dens[mask]))
        assert validate(metric).comparison_margin_f == float(
            np.min(metric.f - np.sin(t)))


def _reader_slices(metric):
    """(nodes, index) for every slice or mask of a node set whose sines
    or cosines a reader takes from the full-set cache."""
    t, fine, k = metric.theta, metric.fine, ANALYTIC_REFINE
    out = []
    # the residual band, and a wider one as a bvp solve with a larger
    # epsilon uses (2 epsilon)
    for band in (RESIDUAL_BAND, 0.2):
        b = _band(t, band)
        out.append((t, b))                                 # pde_residual
        out.append((fine, slice(k * b.start, k * (b.stop - 1) + 1)))  # flux
    out.append((fine, slice(1, -1)))                       # _ratio_on
    out.append((fine, np.sin(fine) > 1e-9))                # cot term
    return out


class TestSlicesOfTheCache:
    """A slice of the cached sines is the sine of the slice.  numpy's SIMD
    trig could in principle round an element differently by its position
    in the array (vector body or scalar tail); that would move report
    digests, so it fails here first."""

    @pytest.mark.parametrize("case", CASES)
    def test_trig_is_position_independent(self, solutions, case):
        metric = solutions(case).metric
        for nodes, index in _reader_slices(metric):
            for fn in (np.sin, np.cos):
                assert _same(fn(nodes)[index], fn(nodes[index])), fn

    @pytest.mark.parametrize("case", CASES)
    def test_caches_are_the_fields_of_their_own_node_set(self, solutions,
                                                         case):
        metric = solutions(case).metric
        for fine in (False, True):
            t, (_, f, _, df, _, _) = metric.nodes_and_jet(fine)
            s, c = metric.trig(fine)
            fos, sf = metric.pole_safe(fine)
            assert _same(s, np.sin(t)) and _same(c, np.cos(t))
            assert _same(fos, _f_over_sin(t, f, df))
            assert _same(sf, _sin_fprime_over_f(t, f, df, fos))
            assert metric.trig(fine)[0] is s     # computed once
