"""The trigonometric and pole-safe fields a metric caches per node set.

The readers of `potential`, `functionals` and `verification` take sin,
cos, f/sin and sin f'/f from the metric's two node sets, `on_grid` and
`on_fine`, or from slices of them.  The oracles below are the formulas
as they read before those caches existed, calling np.sin and np.cos
afresh on each node set or slice; every value must equal them bit for
bit.
"""

from functools import cached_property

import numpy as np
import pytest

from warpedsphere import (RadialGrid, flux_residual, load_profile_table,
                          solve_quadrature)
from warpedsphere import verification
from warpedsphere.functionals import (POLAR_RADII, Evaluation, _Fields,
                                      _polar_grids, set_measure,
                                      weighted_median)
from warpedsphere.grids import (ANALYTIC_REFINE, PI, cumulative, integrate,
                                node_weights)
from warpedsphere.metrics import NodeSet, validate
from warpedsphere.potential import (RESIDUAL_BAND, _POLE_SNAP, _band,
                                    _derivative_high_order)

from conftest import (ORACLE_CASES, REFERENCE_BUILDERS, REFERENCE_NAMES,
                      write_profile_table)

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
                write_profile_table(metric, path)
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
    fine = metric.on_fine.t
    phi, f, dphi, df, _, _ = metric.on_fine.jet
    p0, ppi = metric.phi[0], metric.phi[-1]
    if abs(p0 - 1.0) < _POLE_SNAP:
        p0 = 1.0
    if abs(ppi - 1.0) < _POLE_SNAP:
        ppi = 1.0
    p_side = np.where(fine < PI / 2, p0, ppi)
    J = metric.on_fine.cumulative(_regular_cot_term(phi, dphi, p_side, fine))
    J = J - np.interp(PI / 2, fine, J)
    log_sin = np.log(np.clip(np.sin(fine), 1e-300, None))
    coef = 3.0 * p_side - 3.0
    sin_term = np.where(coef == 0.0, 0.0, coef * log_sin)
    lr = 3.0 * J + sin_term - 2.0 * np.log(_f_over_sin(fine, f, df))

    s = np.sin(fine)
    r = np.exp(lr - float(np.max(lr)))
    dens = r * phi * s
    K = 2.0 / metric.on_fine.simpson(dens)
    du_fine = -K * dens
    u_fine = 1.0 + metric.on_fine.cumulative(du_fine)
    sk = slice(None, None, ANALYTIC_REFINE)
    t = metric.theta
    du, u, ratio = du_fine[sk], u_fine[sk], K * r[sk]
    phi, f, dphi, df, _, _ = metric.on_grid.jet
    sf = _sin_fprime_over_f(t, f, df, _f_over_sin(t, f, df))
    d2u = du * dphi / phi + ratio * phi * (2.0 * sf - 3.0 * phi * np.cos(t))
    return u, du, d2u, ratio, _residual_sup(metric, du)


def _residual_sup(metric, du):
    t = metric.theta
    b = _band(t, RESIDUAL_BAND)
    phi, f = metric.on_grid.jet[:2]
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
    phi, f = metric.on_grid.jet[:2]
    w = f**2 * pot.du / phi
    logw = np.log(np.clip(np.abs(w[b]), 1e-300, None))
    fb = slice(k * b.start, k * (b.stop - 1) + 1)
    x = metric.on_fine.t[fb]
    target = cumulative(3.0 * metric.on_fine.jet[0][fb] * np.cos(x)
                        / np.sin(x), x)[::k]
    defect = (np.diff(logw) - np.diff(target)) / np.diff(t[b])
    return float(np.max(np.abs(defect)))


def _ratio_on(pot):
    t, fine, k = pot.theta, pot.metric.on_fine.t, ANALYTIC_REFINE
    n = t.size
    logr_nodes = np.log(np.clip(pot.ratio, 1e-300, None))
    inner = fine[1:-1]
    phi_i, f_i, _, df_i, _, _ = (y[1:-1] for y in pot.metric.on_fine.jet)
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


def _polar_csc3(pot, r):
    """The polar masses at r, one radius at a time: an order-2 jet, fresh
    sines and a fresh Simpson rule on each 2001-node sub-grid."""

    def one_side(lo, hi):
        s = np.linspace(lo, hi, 2001)
        phi, f, _, df, _, _ = pot.metric.jet(s)
        fos = _f_over_sin(s, f, df)
        ratio = np.interp(s, pot.theta, pot.ratio)
        return 4.0 * PI * integrate(ratio * phi * fos**2, s)

    return one_side(0.0, r), one_side(PI - r, PI)


def _oracle_node_set(t, jet, fos, sf):
    """A fresh node set on a fresh grid on t whose jet, sin, cos, f/sin
    and sin f'/f are the oracle values, set before any reader can compute
    its own."""
    grid = RadialGrid(t)
    grid.__dict__.update(sin=np.sin(t), cos=np.cos(t))
    ns = NodeSet(grid, profiles=None)
    ns.__dict__.update(jet=jet, fos=fos, sf=sf)
    return ns


def _field_arrays(fld):
    """{name: array} of the node set and potential fields in `fld`."""
    ns = fld.ns
    phi, f, dphi, df, _, _ = ns.jet
    return {"theta": ns.t, "phi": phi, "f": f, "dphi": dphi, "df": df,
            "cos": ns.cos, "fos": ns.fos, "sf": ns.sf, "ratio": fld.ratio,
            "du": fld.du, "d2u": fld.d2u}


class _OracleEvaluation(Evaluation):
    """An Evaluation whose trig readers use the pre-cache formulas; the
    properties built on them (core, csc_hessian_l1) follow."""

    @cached_property
    def fields(self):
        metric, pot = self.metric, self.pot
        refined = metric.profiles is not None
        jet = (metric.on_fine if refined else metric.on_grid).jet
        t = metric.on_fine.t if refined else metric.theta
        phi, f, dphi, df, _, _ = jet
        fos = _f_over_sin(t, f, df)
        sf = _sin_fprime_over_f(t, f, df, fos)
        ns = _oracle_node_set(t, jet, fos, sf)
        if not refined:
            return _Fields(ns, pot.ratio, pot.du, pot.d2u)
        ratio = _ratio_on(pot)
        sgn = 1.0 if pot.u[-1] >= pot.u[0] else -1.0
        s = np.sin(t)
        du = sgn * ratio * phi * s
        d2u = sgn * ratio * (3.0 * phi**2 * np.cos(t)
                             - 2.0 * phi * sf + dphi * s)
        return _Fields(ns, ratio, du, d2u)

    @cached_property
    def hessian_squared(self):
        fld = self.fields
        phi, _, dphi, _, _, _ = fld.ns.jet
        cot_term = fld.ratio * np.cos(fld.ns.t)
        h_rad = fld.d2u / phi**2 - dphi * fld.du / phi**3 + cot_term
        h_sph = -fld.ratio * fld.ns.sf / phi + cot_term
        return h_rad**2 + 2.0 * h_sph**2

    @property
    def ratio_seminorm(self):
        fld = self.fields
        t, (phi, f, _, df, _, _) = fld.ns.t, fld.ns.jet
        integrand = np.abs(fld.ratio
                           * ((3.0 * phi - 1.0) * np.cos(t) * f * fld.ns.fos
                              - 2.0 * df * f))
        return 4.0 * PI * fld.ns.simpson(integrand)

    @property
    def alignment(self):
        pot = self.pot
        t = pot.theta
        phi, f = self.metric.on_grid.jet[:2]
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
        fields, want = _field_arrays(ev.fields), _field_arrays(oracle.fields)
        refined = pot.metric.profiles is not None
        assert ev.fields.ns is (pot.metric.on_fine if refined
                                else pot.metric.on_grid)
        for name in want:
            assert _same(fields[name], want[name]), name
        assert _same(ev.hessian_squared, oracle.hessian_squared)
        assert ev.ratio_seminorm == oracle.ratio_seminorm
        ac = ev.alignment
        assert (ac.a, ac.sigma, ac.attained_l1_gap_ratio,
                ac.attained_l1_gap_u) == oracle.alignment
        assert ev.core == oracle.core
        assert ev.csc_hessian_l1 == oracle.csc_hessian_l1
        assert ev.m == oracle.m and ev.shells == oracle.shells
        for r in POLAR_RADII:
            assert ev.polar_masses[r] == _polar_csc3(pot, r), r

    @pytest.mark.parametrize("case", [c for c in ORACLE_CASES
                                      if c.endswith("-bvp")])
    def test_polar_masses_of_bvp_solutions(self, oracle_solutions, case):
        pot = oracle_solutions(case)
        # unguarded, so that the bvp potentials the guard refuses
        # are compared too
        ev = Evaluation.__new__(Evaluation)
        ev.metric, ev.pot = pot.metric, pot
        for r in POLAR_RADII:
            assert ev.polar_masses[r] == _polar_csc3(pot, r), r

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
    t, fine, k = metric.theta, metric.on_fine.t, ANALYTIC_REFINE
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


class TestPolarBatch:
    """The polar masses evaluate the six sub-grids as one concatenated
    node set, phi and f at order 0 and f' on the pole nodes only."""

    @pytest.mark.parametrize("case", CASES)
    def test_order_0_is_the_order_2_phi_and_f(self, solutions, case):
        metric, nodes = solutions(case).metric, _polar_grids().nodes
        phi, f = metric.jet(nodes, 0)
        jet = metric.jet(nodes)
        assert _same(phi, jet[0]) and _same(f, jet[1])

    @pytest.mark.parametrize("case", CASES)
    def test_slices_equal_each_sub_grid_alone(self, solutions, case):
        pot = solutions(case)
        grids = _polar_grids()
        batch = pot.metric.jet(grids.nodes)
        ratio = np.interp(grids.nodes, pot.theta, pot.ratio)
        for piece, _ in grids.pieces:
            s = grids.nodes[piece]
            alone = pot.metric.jet(s)
            for got, want in zip(batch, alone):
                assert _same(got[piece], want)
            assert _same(ratio[piece],
                         np.interp(s, pot.theta, pot.ratio))
        poles = pot.metric.jet(grids.nodes[grids.poles])
        for got, want in zip(poles, batch):
            assert _same(got, want[grids.poles])

    def test_sub_grids_and_pole_nodes(self):
        grids = _polar_grids()
        assert grids is _polar_grids()         # built once per process
        n = grids.nodes.size // 6
        expected = [np.linspace(lo, hi, n) for r in POLAR_RADII
                    for lo, hi in ((0.0, r), (PI - r, PI))]
        assert _same(grids.nodes, np.concatenate(expected))
        sin = np.sin(grids.nodes)
        assert _same(grids.poles, np.flatnonzero(sin <= 1e-9))
        assert grids.nodes[grids.poles].tolist() == [0.0, PI] * 3


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
        for ns in (metric.on_grid, metric.on_fine):
            t, (_, f, _, df, _, _) = ns.t, ns.jet
            s, c = ns.sin, ns.cos
            fos, sf = ns.fos, ns.sf
            assert _same(s, np.sin(t)) and _same(c, np.cos(t))
            assert _same(fos, _f_over_sin(t, f, df))
            assert _same(sf, _sin_fprime_over_f(t, f, df, fos))
            assert ns.sin is s and ns.sf is sf   # computed once
