"""Grid construction, refinement and quadrature helpers."""

import re
import sys

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson

from warpedsphere import RadialGrid, cli, families, grids, refine_nodes
from warpedsphere.errors import StructuralError
from warpedsphere.families import _tendril_layout, tendril_grid
from warpedsphere.grids import (PI, cumulative, cumulative_rule,
                                default_grid, integrate, node_weights,
                                simpson_rule)


class TestRadialGrid:
    def test_uniform_spans_zero_to_pi(self):
        g = RadialGrid.uniform(101)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == pytest.approx(PI, abs=0)
        assert np.all(np.diff(g.nodes) > 0)

    def test_graded_spans_zero_to_pi(self):
        g = RadialGrid.graded(101)
        assert g.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert g.nodes[-1] == pytest.approx(PI, abs=1e-12)
        # graded nodes cluster at the poles
        d = np.diff(g.nodes)
        assert d[0] < d[d.size // 2]

    def test_raw_nodes_accepted(self):
        nodes = np.linspace(0.0, PI, 257)
        g = RadialGrid(nodes)
        assert g.n == 257

    @pytest.mark.parametrize("nodes", [
        np.linspace(0.0, PI, 5),              # too few
        np.linspace(0.1, PI, 64),             # wrong left endpoint
        np.linspace(0.0, 3.0, 64),            # wrong right endpoint
    ])
    def test_bad_nodes_rejected(self, nodes):
        with pytest.raises(StructuralError):
            RadialGrid(nodes)

    def test_nonmonotone_rejected(self):
        nodes = np.linspace(0.0, PI, 64)
        nodes[10], nodes[11] = nodes[11], nodes[10]
        with pytest.raises(StructuralError):
            RadialGrid(nodes)


class TestGridCaches:
    """A grid keeps what depends on its nodes alone, read-only, and the
    families' default grids are shared by the process."""

    def test_caches_equal_fresh_computations(self):
        g = RadialGrid.graded(333)
        y = np.exp(np.sin(3.0 * g.nodes))
        assert np.array_equal(g.refined.nodes, refine_nodes(g.nodes))
        assert g.simpson(y) == integrate(y, g.nodes)
        assert np.array_equal(g.cumulative(y), cumulative(y, g.nodes))
        assert np.array_equal(g.trapezoid, node_weights(g.nodes))
        assert np.array_equal(g.sin, np.sin(g.nodes))
        assert np.array_equal(g.cos, np.cos(g.nodes))
        for name in ("refined", "simpson", "cumulative", "trapezoid", "sin",
                     "cos"):
            assert getattr(g, name) is getattr(g, name)

    @pytest.mark.parametrize("kind,family", [
        ("uniform", "round"), ("uniform", "bump"), ("graded", "bubble")])
    def test_families_share_their_default_grid(self, kind, family):
        params = {"round": {}, "bump": {"eta": 0.5},
                  "bubble": {"area_radius": 2.0, "neck_theta": 0.05}}[family]
        a = families.make(family, **params)
        b = families.make(family, **params)
        assert a.grid is b.grid is default_grid(kind)
        assert np.array_equal(a.grid.nodes, getattr(RadialGrid, kind)().nodes)
        assert a.on_fine is not b.on_fine
        assert a.on_fine.grid is b.on_fine.grid

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_shared_arrays_refuse_writes(self, kind):
        g = default_grid(kind)
        arrays = [g.nodes, g.refined.nodes, g.trapezoid, g.sin, g.cos,
                  g.refined.sin, g.refined.cos]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                a += 0.0

    @pytest.mark.parametrize("family", ["bump", "bubble"])
    def test_second_sequence_builds_no_node_only_work(self, family,
                                                      monkeypatch, capsys):
        """Once one sequence has run on a family's default grid, a second
        refines no grid, builds no quadrature rule and takes no sine or
        cosine outside the family's own profiles."""
        argv = ["sequence", "--family", family, "--count", "2"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("refine_nodes", "simpson_rule", "cumulative_rule",
                     "node_weights"):
            monkeypatch.setattr(grids, name, counting(name,
                                                      getattr(grids, name)))

        def trig(name, fn):
            def wrapper(x, *args, **kwargs):
                caller = sys._getframe(1).f_globals.get("__name__")
                if caller != families.__name__:
                    calls.append(name)
                return fn(x, *args, **kwargs)
            return wrapper

        for name in ("sin", "cos"):
            monkeypatch.setattr(np, name, trig(name, getattr(np, name)))
        assert cli.main(argv) == 0
        assert calls == []
        second = capsys.readouterr().out
        assert second.count('"error": ""') == 2

        def untimed(text):
            return re.sub(r'"timestamp": "[^"]*"', "", text)

        assert untimed(second) == untimed(first)


class TestRefineNodes:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_counts_and_endpoints(self, k):
        nodes = np.linspace(0.0, PI, 11)
        fine = refine_nodes(nodes, k)
        assert fine.size == (nodes.size - 1) * k + 1
        assert fine[0] == nodes[0]
        assert fine[-1] == nodes[-1]
        # original nodes are preserved at stride k
        assert np.allclose(fine[::k], nodes)

    def test_nonuniform_cells_subdivided_equally(self):
        nodes = np.array([0.0, 0.1, 0.5, PI])
        fine = refine_nodes(nodes, 2)
        assert fine[1] == pytest.approx(0.05)
        assert fine[3] == pytest.approx(0.3)


class TestQuadrature:
    def test_integrate_polynomial_exact(self):
        # Simpson is exact on cubics
        x = np.linspace(0.0, 2.0, 21)
        assert integrate(x**3, x) == pytest.approx(4.0, abs=1e-12)

    def test_integrate_sin_converges(self):
        x = np.linspace(0.0, PI, 201)
        assert integrate(np.sin(x), x) == pytest.approx(2.0, abs=1e-8)

    def test_cumulative_matches_antiderivative(self):
        x = np.linspace(0.0, PI, 401)
        c = cumulative(np.sin(x), x)
        assert c[0] == 0.0
        assert np.max(np.abs(c - (1.0 - np.cos(x)))) < 1e-8

    def test_node_weights_sum_to_span(self):
        x = np.sort(np.append(np.linspace(0.0, PI, 33),
                              [0.1, 0.2, 3.0]))
        w = node_weights(x)
        assert np.all(w > 0)
        assert np.sum(w) == pytest.approx(PI, abs=1e-12)


def _bits(value):
    """Raw float64 bytes, so that 0.0 and -0.0 count as different."""
    return np.asarray(value, dtype=float).tobytes()


def _assert_matches_scipy(y, x):
    assert _bits(integrate(y, x)) == _bits(simpson(y=y, x=x))
    assert (_bits(cumulative(y, x))
            == _bits(cumulative_simpson(y=y, x=x, initial=0.0)))


def _tendril_nodes(width):
    _, breaks, _ = _tendril_layout(width, None)
    return tendril_grid(breaks).nodes


class TestScipyOracle:
    """The numpy Simpson rules are bit-identical to scipy's."""

    @pytest.mark.parametrize("n", [1000, 1001, 2000, 2001, 4000, 4001])
    @pytest.mark.parametrize("spacing", ["uniform", "graded"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_radial_grids(self, n, spacing, k):
        x = refine_nodes(getattr(RadialGrid, spacing)(n).nodes, k)
        for y in (np.sin(x), np.sin(x) ** 3 / (1.0 + x),
                  np.exp(-3.0 * x) * np.cos(7.0 * x)):
            _assert_matches_scipy(y, x)
            _assert_matches_scipy(y[:-1], x[:-1])

    @pytest.mark.parametrize("width", [0.05, 0.1, 0.12])
    @pytest.mark.parametrize("k", [1, 4])
    def test_enriched_tendril_grids(self, width, k):
        x = refine_nodes(_tendril_nodes(width), k)
        for y in (np.sin(x), 1.0 / (1.0 + 50.0 * (x - 0.3) ** 2)):
            _assert_matches_scipy(y, x)
            _assert_matches_scipy(y[1:], x[1:])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shortest_grids(self, n):
        x = np.array([0.0, 0.3, 0.35, 1.0, 2.5])[:n]
        _assert_matches_scipy(np.array([1.0, -2.0, 0.5, 3.0, 1e-3])[:n], x)
        _assert_matches_scipy(np.zeros(n), x)
        _assert_matches_scipy(-np.zeros(n), x)

    @pytest.mark.parametrize("n", [4, 5, 8, 9])
    def test_underflowing_spacings(self, n):
        # h0 * h1 underflows to 0, where scipy's guarded divisions give 0
        x = np.arange(n) * 1e-300
        y = np.zeros(n)
        y[0], y[1] = -1e-300, 1e-320
        y[2:] = -0.0
        _assert_matches_scipy(y, x)
        _assert_matches_scipy(y[::-1].copy(), x)

    def test_random_grids(self):
        rng = np.random.default_rng(20260418)
        for _ in range(3000):
            n = int(rng.integers(2, 48))
            steps = rng.random(n) ** rng.uniform(0.2, 5.0) + 1e-12
            x = rng.normal() + np.cumsum(steps)
            if np.any(np.diff(x) <= 0):
                continue
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 8.0)
            _assert_matches_scipy(y, x)
            # zero integrands: the sign of a zero result must match too
            _assert_matches_scipy(np.where(y > 0, 0.0, -0.0), x)

    @pytest.mark.parametrize("n", [2, 3, 2000, 2001])
    def test_reused_rule(self, n):
        x = RadialGrid.graded(max(n, 33)).nodes[:n]
        rule = simpson_rule(x)
        for c in (0.0, 0.3, 0.9):
            y = (1.0 - c * np.sin(x) ** 2) ** -0.5 - 1.0
            assert _bits(rule(y)) == _bits(simpson(y=y, x=x))

    def test_cumulative_rejects_non_increasing_x(self):
        x = np.array([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            cumulative(np.ones(4), x)
        with pytest.raises(ValueError, match="strictly increasing"):
            cumulative(np.ones(3), x[[0, 2, 1]])


def _simpson_first_halves(y, dx):
    """Simpson integral over [x_i, x_i+1] from the parabola through
    x_i, x_i+1, x_i+2, for every i (Cartwright 2017, eq. 8)."""
    x21 = dx[:-1]
    x32 = dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def _two_pass_cumulative(y, x):
    """The cumulative rule as first written: both parabola passes over
    every interval, half of each kept."""
    dx = np.diff(x)
    fwd = _simpson_first_halves(y, dx)
    rev = _simpson_first_halves(y[::-1], dx[::-1])[::-1]
    sub = np.empty(dx.shape[0])
    sub[:-1:2] = fwd[::2]
    sub[1::2] = rev[::2]
    sub[-1] = rev[-1]
    return np.concatenate(([0.0], np.cumsum(sub) + 0.0))


def _node_set(kind, n):
    """n strictly increasing nodes: uniform or cosine-graded on [0, pi],
    or the n enriched tendril nodes around b3, where the dense blocks
    overlap and near-duplicate nodes sit beside wide gaps."""
    if kind == "uniform":
        return np.linspace(0.0, PI, n)
    if kind == "graded":
        return 0.5 * PI * (1.0 - np.cos(np.linspace(0.0, PI, n)))
    _, breaks, _ = _tendril_layout(0.1, None)
    nodes = tendril_grid(breaks).nodes
    start = int(np.searchsorted(nodes, breaks[3])) - n // 2
    return nodes[start:start + n]


class TestCumulativeRule:
    """`cumulative_rule` computes only the halves kept and is still
    scipy's `cumulative_simpson` bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 33, 2001])
    @pytest.mark.parametrize("kind", ["uniform", "graded", "tendril"])
    def test_one_rule_many_integrands(self, n, kind):
        x = _node_set(kind, n)
        assert x.size == n and np.all(np.diff(x) > 0)
        rule = cumulative_rule(x)
        rng = np.random.default_rng(n)
        for y in (np.sin(x), np.exp(-3.0 * x) * np.cos(7.0 * x),
                  rng.normal(size=n) * 1e5, np.where(x > 1.0, 0.0, -0.0),
                  (1.0 - 0.9 * np.sin(x) ** 2) ** -0.5 - 1.0):
            got = _bits(rule(y))
            assert got == _bits(cumulative_simpson(y=y, x=x, initial=0.0))
            assert got == _bits(_two_pass_cumulative(y, x))
            assert got == _bits(cumulative(y, x))

    def test_rule_keeps_no_state_between_integrands(self):
        x = _node_set("graded", 2001)
        rule = cumulative_rule(x)
        y = np.cos(x)
        first = _bits(rule(y))
        rule(np.sin(x) * 1e300)
        assert _bits(rule(y)) == first
