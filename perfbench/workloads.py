"""Seeded inputs for the benchmark workloads.

Each workload is a list of CLI argument vectors, built in short *rounds*.
A round holds one input per family (per family and count for `sequence`);
grid sizes and counts rotate from round to round, so every stratum
(family, grid size, count) recurs every three rounds.  A run walks the
list from the start and stops only at the end of a round, so every run
draws each family equally often and the other strata nearly so; that
keeps the mix, and with it the timings, the same from seed to seed.  The
seed only changes parameter values and order.  The same seed always gives
the same list.

Every parameter is drawn inside its `FAMILY_CATALOG` range and inside a
region where the metric can be built and the potential solved, so no call
is expected to exit 2 or 3.  Some draws lie outside the comparison class
(large `scaled` radius, large `bubble` fiber sphere); their `fail`
verdicts (exit 1) are findings, and the reference records them.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("verify", "sequence", "pointpick")

#: grid sizes every non-tendril family is run at in `verify`; the larger
#: grids shift call time from `distance` (fixed 512 x 512 routes) toward
#: `potential` (Fornberg weights per node)
VERIFY_GRID_N = (1001, 2001, 4001)

#: schedules and counts for `sequence`; counts stay small so one call
#: lasts one or two `verify` calls.  Call time grows with the count, so
#: the calls form one cluster per count; with two of every three calls
#: at count 2, the median and the tail call both fall inside the count-2
#: cluster instead of on the edge between two clusters.
SEQUENCE_FAMILIES = ("bump", "tendril", "bubble")
SEQUENCE_COUNTS = (1, 2, 2)

POINTPICK_FAMILIES = ("round", "scaled", "bump", "tendril", "bubble")

#: inputs per workload list; far more than one run uses today, so that a
#: program many times faster still sees distinct inputs
LIST_LENGTH = {"verify": 3000, "sequence": 3000, "pointpick": 10000}

#: the grids each workload's scenarios run on
GRIDS = {
    "verify": "n in {1001, 2001, 4001}, uniform or graded; tendril on "
              "its own enriched grid (about 3600 nodes)",
    "sequence": "family defaults: bump uniform 2001, bubble graded 2001, "
                "tendril enriched (about 3600 nodes)",
    "pointpick": "metric on uniform n in {1001, 2001, 4001} (tendril on its "
                 "own grid); each ball volume on a 4001-point subgrid",
}

#: directory, relative to the checkout, for the generated scenario files
WORK_DIR = os.path.join("perfbench", "out")


def _num(x: float) -> str:
    return format(x, ".6g")


def _draw_params(rng: random.Random, family: str) -> list[str]:
    """--param flags for one family member drawn from its admissible range."""
    if family == "round":
        return []
    if family == "scaled":
        # c > ~2.6 leaves the class (volume > 40): a finding, exit 1
        params = {"c": rng.uniform(1.0, 3.0)}
    elif family == "bump":
        width = rng.uniform(0.3, 0.9)
        params = {"eta": rng.uniform(0.0, 4.0), "width": width,
                  "theta0": rng.uniform(width, math.pi - width)}
    elif family == "tendril":
        params = {"length": rng.uniform(0.0, 2.0),
                  "width": rng.uniform(0.05, 0.12)}
    elif family == "bubble":
        neck = rng.uniform(0.05, 0.5)
        mid = neck * (1.0 - 0.85 / 2.0)   # plateau centre at default span
        params = {"neck_theta": neck,
                  "area_radius": math.sin(mid) * rng.uniform(1.5, 40.0)}
    else:
        raise ValueError(f"no parameter draw for family {family!r}")
    flags = []
    for key, value in params.items():
        flags += ["--param", f"{key}={_num(value)}"]
    return flags


def graded_config(n: int) -> str:
    """Path of the scenario file selecting a graded grid of n nodes.

    The CLI takes the grid spacing only from a scenario file."""
    return os.path.join(WORK_DIR, f"graded-{n}.ini")


def write_configs() -> None:
    """Write the scenario files the `verify` inputs refer to."""
    os.makedirs(WORK_DIR, exist_ok=True)
    for n in VERIFY_GRID_N:
        with open(graded_config(n), "w") as handle:
            handle.write(f"[grid]\nkind = graded\nn = {n}\n")


def _verify_round(rng: random.Random, j: int) -> list[list[str]]:
    # verify: the only workload that runs potential, functionals and
    # verification; grid size moves time between distance and potential.
    # Tendril builds its own enriched grid, so it keeps its default one.
    calls = []
    for i, family in enumerate(("round", "scaled", "bump", "bubble")):
        n = VERIFY_GRID_N[(i + j) % len(VERIFY_GRID_N)]
        if rng.random() < 0.5:
            grid = ["--grid-size", str(n)]
        else:
            grid = [graded_config(n)]
        calls.append(["verify", *grid, "--family", family,
                      *_draw_params(rng, family)])
    calls.append(["verify", "--family", "tendril",
                  *_draw_params(rng, "tendril")])
    rng.shuffle(calls)
    return calls


def _sequence_round(rng: random.Random, j: int) -> list[list[str]]:
    # sequence: summary path only (no potential solve), so it isolates
    # distance and metrics; the control for potential/functionals changes
    counts = SEQUENCE_COUNTS
    calls = [["sequence", "--family", family,
              "--count", str(counts[(i + j) % len(counts)]),
              "--seed", str(rng.randrange(10**6))]
             for i, family in enumerate(SEQUENCE_FAMILIES)]
    rng.shuffle(calls)
    return calls


def _pointpick_round(rng: random.Random, j: int) -> list[list[str]]:
    # pointpick: hundreds of small quadratures through metrics.ball_volume
    # and grids.integrate, bypassing distance and potential; shows the
    # per-call overhead the large-array workloads hide
    calls = []
    for family in POINTPICK_FAMILIES:
        grid = [] if family == "tendril" else \
            ["--grid-size", str(rng.choice(VERIFY_GRID_N))]
        calls.append(["pointpick", "--family", family, *grid,
                      *_draw_params(rng, family),
                      "--radius", _num(rng.uniform(1e-3, 0.5))])
    rng.shuffle(calls)
    return calls


_ROUNDS = {"verify": _verify_round, "sequence": _sequence_round,
           "pointpick": _pointpick_round}


def round_size(workload: str) -> int:
    """Inputs per round of `workload`."""
    return len(_ROUNDS[workload](random.Random(0), 0))


def generate(workload: str, seed: int) -> list[list[str]]:
    """The argument vectors of `workload` for `seed`, in run order."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    calls: list[list[str]] = []
    j = 0
    while len(calls) < LIST_LENGTH[workload]:
        calls += _ROUNDS[workload](rng, j)
        j += 1
    return calls[:LIST_LENGTH[workload]]


def scenarios(argv: list[str]) -> int:
    """Metrics one call carries through: the schedule length for
    `sequence`, one otherwise."""
    if argv[0] == "sequence":
        return int(argv[argv.index("--count") + 1])
    return 1
