"""Shared fixtures: reference metrics and their solved potentials."""

import dataclasses

import numpy as np
import pytest

from warpedsphere import (RadialGrid, bubble_sphere, bump_sphere,
                          round_sphere, scaled_sphere, solve_quadrature,
                          tendril_sphere)

from bvp_oracle import solve_bvp

REFERENCE_BUILDERS = {
    "round": lambda grid=None: round_sphere(grid=grid),
    "scaled": lambda grid=None: scaled_sphere(1.1, grid=grid),
    "bump": lambda grid=None: bump_sphere(0.1, grid=grid),
    "tendril": lambda grid=None: tendril_sphere(2.0, 0.1, 0.3, grid=grid),
    "bubble": lambda grid=None: bubble_sphere(2.0, 0.1, grid=grid),
}

REFERENCE_NAMES = tuple(REFERENCE_BUILDERS)


@pytest.fixture(scope="session")
def reference_metrics():
    grid = RadialGrid.uniform(2001)
    return {name: build(grid) for name, build in REFERENCE_BUILDERS.items()}


@pytest.fixture(scope="session")
def reference_potentials(reference_metrics):
    return {name: solve_quadrature(metric)
            for name, metric in reference_metrics.items()}


@pytest.fixture(scope="session")
def round_metric(reference_metrics):
    return reference_metrics["round"]


@pytest.fixture(scope="session")
def round_potential(reference_potentials):
    return reference_potentials["round"]


@pytest.fixture(scope="session")
def corrupted_potential(round_potential):
    """The round potential with u = cos(2 theta): not a solution, so its
    flux residual is far above the guard tolerance."""
    t = round_potential.theta
    s = np.clip(np.sin(t), 1e-12, None)
    return dataclasses.replace(
        round_potential, u=np.cos(2.0 * t), du=-2.0 * np.sin(2.0 * t),
        d2u=-4.0 * np.cos(2.0 * t),
        ratio=np.abs(-2.0 * np.sin(2.0 * t) / s))


#: (reference, grid, solver) cases on which the readers that slice the
#: metric's cached jets are compared with their evaluate-again oracles;
#: the bvp cases are solved by the test oracle `bvp_oracle.solve_bvp`
ORACLE_CASES = tuple(
    f"{name}-{kind}-{n}-{solver}"
    for name in REFERENCE_NAMES for kind in ("uniform", "graded")
    for n in (1001, 4001) for solver in ("quadrature", "bvp")
) + ("tendril-enriched-quadrature", "tendril-enriched-bvp")


@pytest.fixture(scope="session")
def oracle_solutions():
    """Solved potentials of every ORACLE_CASES entry, built on first use."""
    cache = {}

    def solution(case):
        if case not in cache:
            name, kind, *n, solver = case.split("-")
            grid = None if kind == "enriched" else \
                getattr(RadialGrid, kind)(int(n[0]))
            metric = REFERENCE_BUILDERS[name](grid)
            solve = solve_quadrature if solver == "quadrature" else solve_bvp
            cache[case] = solve(metric)
        return cache[case]

    return solution


def write_profile_table(metric, path):
    """Write the metric's node samples as the (theta, phi, f) text table
    that `load_profile_table` reads."""
    np.savetxt(path, np.column_stack([metric.theta, metric.phi, metric.f]),
               header="theta phi f", fmt="%.17e")


def rng(seed=0):
    return np.random.default_rng(seed)
