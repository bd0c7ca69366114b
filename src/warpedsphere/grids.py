"""Radial grids on [0, pi] and the quadrature helpers used everywhere else.

All integrals in the package are one-dimensional integrals in the
colatitude theta; composite Simpson is used throughout, with an optional
uniform subdivision of each cell ("refinement") when the integrand is
available analytically.  Cumulative integrals are needed both for the
potential solvers and for level-set volume scans.

The two Simpson rules are fixed numpy ports of the 1-D paths of scipy
1.17's ``scipy.integrate.simpson`` and ``cumulative_simpson`` (Cartwright
2017, eq. 8): the same floating-point operations in the same order, so
every integral on strictly increasing x, and so every report, is
bit-identical to scipy's and no longer depends on which scipy version is
installed.  The tests keep scipy as the oracle.

Each rule is built once per grid: `simpson_rule(x)` and
`cumulative_rule(x)` compute the factors that depend on x alone and
return the rule as a function of the samples y.  A `RadialGrid` keeps
everything that depends on its nodes alone, computed on first read: its
refined grid, its Simpson, cumulative and trapezoid rules, and its sines
and cosines.  A metric's node sets (`metrics.NodeSet`) read them from
their grid; `integrate` and `cumulative` build a rule for one use, for
node sets that occur once (band slices, ball sub-grids).

`_derivative_high_order` is the STENCIL-node first derivative on any
strictly increasing nodes: the potential's residual self-check
differentiates the flux with it, and a sampled table takes f' at its
poles from it.

The families' default grids are built once per process (`default_grid`)
and shared, read-only, by every metric built on them, so the node-only
work of a sequence of metrics on one default grid is done once.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .errors import StructuralError

PI = np.pi

#: number of uniform sub-cells per grid cell when an analytic integrand
#: is available; brings cumulative Simpson well below 1e-12 at n = 2001
ANALYTIC_REFINE = 4

MIN_NODES = 33

#: largest grid the command line builds.  Peak memory grows about 1.2 kB
#: per node: `verify` on bump took 140 MB at 100,001 nodes and 468 MB at
#: 400,001 (Python 3.11, 2-core x86-64), so a far larger n would exhaust
#: memory instead of running
MAX_NODES = 1_000_001


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, flagged read-only: a shared node-only array must not change."""
    a.flags.writeable = False
    return a


class RadialGrid:
    """Strictly increasing colatitude samples covering [0, pi], and what
    depends on them alone, each computed on first read and then kept:
    the refined grid, the three quadrature rules, sines and cosines.
    The kept arrays are read-only.  Grids compare by identity."""

    def __init__(self, nodes: np.ndarray):
        self.nodes = nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < MIN_NODES:
            raise StructuralError(f"grid needs at least {MIN_NODES} nodes")
        if not (abs(nodes[0]) < 1e-15 and abs(nodes[-1] - PI) < 1e-12):
            raise StructuralError("grid must span [0, pi] exactly")
        if np.any(np.diff(nodes) <= 0):
            raise StructuralError("grid nodes must be strictly increasing")

    @property
    def n(self) -> int:
        return self.nodes.size

    @classmethod
    def uniform(cls, n: int = 2001) -> "RadialGrid":
        return cls(np.linspace(0.0, PI, n))

    @classmethod
    def graded(cls, n: int = 2001) -> "RadialGrid":
        """Cosine-graded grid, clustered quadratically toward both poles."""
        j = np.linspace(0.0, PI, n)
        return cls(0.5 * PI * (1.0 - np.cos(j)))

    @cached_property
    def refined(self) -> "RadialGrid":
        """Every cell split into ANALYTIC_REFINE equal parts: the
        quadrature nodes of analytic integrands."""
        return RadialGrid(_read_only(refine_nodes(self.nodes)))

    @cached_property
    def simpson(self):
        return simpson_rule(self.nodes)

    @cached_property
    def cumulative(self):
        return cumulative_rule(self.nodes)

    @cached_property
    def trapezoid(self) -> np.ndarray:
        return _read_only(node_weights(self.nodes))

    @cached_property
    def sin(self) -> np.ndarray:
        return _read_only(np.sin(self.nodes))

    @cached_property
    def cos(self) -> np.ndarray:
        return _read_only(np.cos(self.nodes))


@cache
def default_grid(kind: str) -> RadialGrid:
    """The 2001-node `RadialGrid.uniform()` or `RadialGrid.graded()` that a
    family builds on when given no grid, built once per process and
    shared; its nodes are read-only and hold no profile."""
    grid = getattr(RadialGrid, kind)()
    _read_only(grid.nodes)
    return grid


def refine_nodes(nodes: np.ndarray, k: int = ANALYTIC_REFINE) -> np.ndarray:
    """Subdivide every cell of `nodes` into k equal parts."""
    if k == 1:
        return nodes
    left = nodes[:-1]
    steps = np.diff(nodes)
    fine = (left[:, None] + steps[:, None] * (np.arange(k) / k)[None, :]).ravel()
    return np.append(fine, nodes[-1])


def _div(num, den):
    """num / den, and 0 where den == 0 (scipy's guarded division)."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def simpson_rule(x: np.ndarray):
    """`integrate(., x)` as a function of the samples y alone.

    Composite Simpson on strictly increasing x (scipy's `simpson`); an
    even number of samples gets Simpson on all but the last interval plus
    the Cartwright correction for the last one.  The factors that depend
    on x only are computed once, so integrating many y on one grid costs
    about a third of the array operations, with the same result bit for
    bit.
    """
    x = np.asarray(x)
    n = x.shape[0]
    if n == 2:
        half = 0.5 * (x[-1] - x[-2])
        return lambda y: float(0.0 + half * (y[-1] + y[-2]))
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0 = h[0:stop:2]
    h1 = h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _div(h0, h1)
    w = hsum / 6.0
    c0 = 2.0 - _div(1.0, h0divh1)
    c1 = hsum * _div(hsum, hprod)
    c2 = 2.0 - h0divh1

    def panels(y):
        return np.sum(w * (y[0:stop:2] * c0 + y[1:stop + 1:2] * c1
                           + y[2:stop + 2:2] * c2))

    if n % 2:
        return lambda y: float(panels(y))
    # 0-d arrays, as in scipy: a numpy scalar's ** 3 can round 1 ulp
    # differently from the array power
    hm2 = np.squeeze(h[-2:-1])
    hm1 = np.squeeze(h[-1:])
    alpha = _div(2 * hm1 ** 2 + 3 * hm2 * hm1, 6 * (hm1 + hm2))
    beta = _div(hm1 ** 2 + 3.0 * hm2 * hm1, 6 * hm2)
    eta = _div(1 * hm1 ** 3, 6 * hm2 * (hm2 + hm1))
    return lambda y: float(panels(y) + (alpha * y[-1] + beta * y[-2]
                                        - eta * y[-3]))


def integrate(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson of y on strictly increasing x; see `simpson_rule`."""
    return simpson_rule(x)(np.asarray(y))


def _parabola_halves(x21, x32):
    """(w, c1, c2, c3) of the Simpson integral over an interval of length
    x21 from the parabola through it and its neighbour of length x32
    (Cartwright 2017, eq. 8): w * (c1 y_a + c2 y_b + c3 y_c), with y_a at
    the interval's outer end, y_b at the node it shares with the
    neighbour and y_c at the neighbour's far end."""
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6, coeff1, coeff2, coeff3


def cumulative_rule(x: np.ndarray):
    """`cumulative(., x)` as a function of the samples y alone.

    scipy's `cumulative_simpson(y, x=x, initial=0.0)`: the intervals
    0, 2, 4, ... take their Simpson integral from the parabola through
    their right neighbour (scipy's forward pass), the intervals 1, 3,
    5, ... and the last one from the parabola through their left
    neighbour (its reversed pass).  The coefficients depend on x only
    and are computed once, and only the halves kept are evaluated, with
    the same result bit for bit.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    dx = np.diff(x)
    if n < 3:
        def subintervals(y):
            return dx * (y[1:] + y[:-1]) / 2.0
    else:
        if np.any(dx <= 0):
            raise ValueError("Input x must be strictly increasing.")
        fwd = _parabola_halves(dx[:-1:2], dx[1::2])
        rev = _parabola_halves(dx[1::2], dx[:-1:2])
        last = _parabola_halves(dx[-1:], dx[-2:-1]) if n % 2 == 0 else None

        def subintervals(y):
            y0, y1, y2 = y[:-2:2], y[1:-1:2], y[2::2]
            sub = np.empty(n - 1)
            w, c1, c2, c3 = fwd
            sub[:-1:2] = w * (c1 * y0 + c2 * y1 + c3 * y2)
            w, c1, c2, c3 = rev
            sub[1::2] = w * (c1 * y2 + c2 * y1 + c3 * y0)
            if last is not None:
                w, c1, c2, c3 = last
                sub[-1:] = w * (c1 * y[-1:] + c2 * y[-2:-1] + c3 * y[-3:-2])
            return sub

    def rule(y):
        sub = subintervals(np.asarray(y, dtype=float))
        # the + 0.0 is scipy's `initial` offset; it turns -0.0 into 0.0
        return np.concatenate(([0.0], np.cumsum(sub) + 0.0))

    return rule


def cumulative(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of y from x[0], same length as x, starting at
    0; see `cumulative_rule`."""
    return cumulative_rule(x)(y)


def node_weights(x: np.ndarray) -> np.ndarray:
    """Positive quadrature weights (trapezoid) for node-indicator sums.

    Used for set measures and weighted medians, where indicator
    integrands make higher-order rules pointless.
    """
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


#: nodes per finite-difference stencil of `_derivative_high_order`
STENCIL = 9


def _derivative_high_order(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """High-order first derivative on an arbitrary strictly increasing grid.

    Node i uses the STENCIL nodes centred on it (shifted inward at the
    ends) and takes the derivative at x_i of their interpolant in Newton
    form, sum_k y[x_0..x_k] prod_{m<k} (x - x_m).  Each level of divided
    differences is one array expression over all consecutive windows of
    the grid; the running node product and its derivative at x_i
    accumulate the sum, so no weights are formed and no system is solved.
    """
    first = np.clip(np.arange(x.size) - STENCIL // 2, 0, x.size - STENCIL)
    dd, prod, dprod, out = y, 1.0, 0.0, 0.0
    for k in range(1, STENCIL):
        dd = (dd[1:] - dd[:-1]) / (x[k:] - x[:-k])
        gap = x - x[first + k - 1]
        prod, dprod = prod * gap, dprod * gap + prod
        out = out + dd[first] * dprod
    return out
