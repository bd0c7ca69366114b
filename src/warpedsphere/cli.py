"""Batch front end: run scenarios from config files or flags.

Subcommands: analyze (geometry summary), verify (check suites),
sequence (convergence experiment), pointpick, families.

Exit codes: 0 all checks pass, 1 at least one margin failure,
2 invalid input or configuration, 3 solver non-convergence.
Membership failures are findings, not check failures.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import functools
import inspect
import os
import sys
from typing import Callable

from .errors import (ConfigError, ConstructionError, DegenerateMetricError,
                     DomainError, IterationError, ResidualGuardError,
                     SolverError, StructuralError, WarpedSphereError)
from .grids import MAX_NODES, MIN_NODES, RadialGrid
from .metrics import (ClassParams, class_membership, load_profile_table,
                      summarize)
from . import families as fam
from .functionals import point_pick, require_pick_radius
from .potential import SolverConfig, solve_bvp, solve_quadrature
from .constants import constant_ledger
from .verification import (SUITES, SequenceSpec, require_suites,
                           run_all_checks, run_sequence)
from . import report as rep

#: recognized configuration keys per section; unknown keys are errors
_METRIC_KEYS = {"family", "profile"} | {
    k for cat in fam.FAMILY_CATALOG.values() for k in cat}
CONFIG_KEYS = {
    "metric": _METRIC_KEYS,
    "grid": {"kind", "n"},
    "solver": {"method", "epsilon", "max_iterations", "damping",
               "residual_tol"},
    "class": {"volume_max", "diameter_max", "mass_max", "cheeger_min"},
    "suites": {"run", "pointpick_radius", "sequence_family",
               "sequence_count", "tolerance"},
    "output": {"path", "format", "seed"},
}

EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_SOLVER = 0, 1, 2, 3

#: freed heap memory glibc keeps in the process instead of trimming it.
#: glibc's default (128 KiB, raised as large blocks are freed) returns
#: the top of the heap after each scenario frees its arrays, and the next
#: scenario faults the same pages back in; 64 MiB is well above what one
#: scenario frees, so the pages stay mapped for the next
HEAP_KEEP_BYTES = 64 << 20

#: mallopt's parameter number for the trim threshold (glibc malloc.h)
_M_TRIM_THRESHOLD = -1

#: largest `sequence` count: 2.0**-1075 == 0.0, so past this index the
#: bump schedule's eta and the tendril schedule's width are exactly 0
MAX_SEQUENCE_COUNT = 1074


def _schedule(family: str, count: int) -> tuple:
    """The canonical dyadic schedule of a convergence experiment."""
    if family == "bump":
        return tuple({"eta": 2.0 ** -i} for i in range(1, count + 1))
    if family == "tendril":
        return tuple({"length": 1.0, "width": 2.0 ** -i}
                     for i in range(1, count + 1))
    if family == "bubble":
        return tuple({"area_radius": float(i), "neck_theta": 0.05}
                     for i in range(1, count + 1))
    raise ConfigError(f"no canonical schedule for family {family!r}")


def _read_config(path: str) -> dict:
    """The sections of the scenario file at `path`.  A file configparser
    cannot decode or parse is invalid input, reported on one line."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          + " ".join(str(exc).split())) from None
    config: dict = {}
    for section, items in sections.items():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = CONFIG_KEYS[section]
        sec = {}
        for key, value in items:
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"allowed: {sorted(allowed)}")
            sec[key] = value
        config[section] = sec
    return config


def _merge_cli(config: dict, args) -> dict:
    """Apply command-line flags on top of the config file."""
    def put(section, key, value):
        if value is not None:
            config.setdefault(section, {})[key] = value

    put("metric", "family", getattr(args, "family", None))
    for spec in getattr(args, "param", None) or []:
        if "=" not in spec:
            raise ConfigError(f"--param expects key=value, got {spec!r}")
        key, value = spec.split("=", 1)
        if key not in _METRIC_KEYS:
            raise ConfigError(f"unknown metric parameter {key!r}")
        config.setdefault("metric", {})[key] = value
    put("grid", "n", getattr(args, "grid_size", None))
    put("solver", "method", getattr(args, "solver", None))
    put("solver", "epsilon", getattr(args, "epsilon", None))
    put("suites", "tolerance", getattr(args, "tolerance", None))
    put("suites", "run", getattr(args, "suites", None))
    put("suites", "pointpick_radius", getattr(args, "radius", None))
    put("suites", "sequence_count", getattr(args, "count", None))
    put("output", "path", getattr(args, "output", None))
    put("output", "format", getattr(args, "format", None))
    put("output", "seed", getattr(args, "seed", None))
    return config


def _float(section: dict, key: str, default=None):
    if key not in section:
        return default
    try:
        return float(section[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {section[key]!r}")


def _int(section: dict, key: str, default=None):
    if key not in section:
        return default
    try:
        return int(str(section[key]))
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {section[key]!r}")


def _build_grid(config: dict) -> RadialGrid | None:
    sec = config.get("grid", {})
    n = _int(sec, "n")
    kind = sec.get("kind", "uniform")
    if kind not in ("uniform", "graded"):
        raise ConfigError(f"grid kind must be uniform or graded, got {kind!r}")
    if n is None:
        return None
    if n < MIN_NODES:
        raise ConfigError(f"grid n must be at least {MIN_NODES}, got {n}")
    if n > MAX_NODES:
        raise ConfigError(f"grid n must be at most {MAX_NODES}, got {n}")
    if kind == "graded":
        return RadialGrid.graded(n)
    return RadialGrid.uniform(n)


def _defaults(family: str) -> dict:
    """The family constructor's parameter defaults, `inspect`'s `empty`
    for a parameter it requires."""
    signature = inspect.signature(fam.FAMILIES[family]).parameters
    return {name: p.default for name, p in signature.items()}


def _build_metric(config: dict):
    sec = config.get("metric", {})
    grid = _build_grid(config)
    if "profile" in sec:
        return load_profile_table(sec["profile"])
    family = sec.get("family", "round")
    if family not in fam.FAMILIES:
        raise ConfigError(
            f"unknown family {family!r}; choose from {sorted(fam.FAMILIES)}")
    params = {}
    for key, value in sec.items():
        if key == "family":
            continue
        if key not in fam.FAMILY_CATALOG[family]:
            raise ConfigError(
                f"parameter {key!r} not accepted by family {family!r}")
        params[key] = _float(sec, key)
    missing = [name for name, default in _defaults(family).items()
               if default is inspect.Parameter.empty and name not in params]
    if missing:
        raise ConfigError(
            f"family {family!r} requires parameter(s): {', '.join(missing)}")
    return fam.make(family, grid=grid, **params)


def _class_params(config: dict) -> ClassParams:
    sec = config.get("class", {})
    return ClassParams(
        volume_max=_float(sec, "volume_max", 40.0),
        diameter_max=_float(sec, "diameter_max", 10.0),
        mass_max=_float(sec, "mass_max", 1.0),
        cheeger_min=_float(sec, "cheeger_min", 1.0))


def _solve(metric, config: dict):
    sec = config.get("solver", {})
    method = sec.get("method", "quadrature")
    if method == "quadrature":
        tol = _float(sec, "residual_tol", 1e-4)
        return solve_quadrature(metric, residual_tol=tol)
    if method == "bvp":
        cfg = SolverConfig(
            epsilon=_float(sec, "epsilon", 1e-3),
            max_iterations=_int(sec, "max_iterations", 50),
            damping=_float(sec, "damping", 0.5))
        return solve_bvp(metric, cfg)
    raise ConfigError(f"solver method must be quadrature or bvp, got {method!r}")


def _seed(config: dict):
    sec = config.get("output", {})
    return _int(sec, "seed")


def _emit(config: dict, doc: dict, csv_text: Callable[[], str]) -> None:
    """Write the report as JSON, or as the CSV text that `csv_text()`
    builds, which is called only when the format is csv."""
    sec = config.get("output", {})
    fmt = sec.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    text = rep.report_json(doc) if fmt == "json" else csv_text()
    path = sec.get("path")
    if path:
        rep.write_text_atomic(path, text)
    else:
        sys.stdout.write(text)


def _key_value_csv(pairs) -> str:
    """A two-column key,value CSV table of the (key, value) pairs."""
    return "\n".join(["key,value"] + [f"{k},{v}" for k, v in pairs]) + "\n"


def _summary_extras(metric, params: ClassParams) -> dict:
    """The metric, summary and membership blocks of a report."""
    s = summarize(metric)
    member = class_membership(s, params)
    return {
        "metric": {"name": metric.name, "params": metric.params,
                   "grid_n": metric.grid.n},
        "summary": {
            "volume": s.volume,
            "diameter_lower": s.diameter_lower,
            "diameter_upper": s.diameter_upper,
            "mass": s.mass,
            "cheeger_surrogate": s.cheeger_surrogate,
            "validation_ok": s.validation.ok,
        },
        "membership": {"admitted": member.admitted, **vars(member)},
    }


def cmd_analyze(config: dict) -> int:
    metric = _build_metric(config)
    params = _class_params(config)
    extras = _summary_extras(metric, params)
    doc = rep.build_report([], config, seed=_seed(config), extras=extras)
    _emit(config, doc, lambda: _key_value_csv(
        (f"{group}.{key}", value) for group in ("summary", "membership")
        for key, value in extras[group].items()))
    return EXIT_PASS


def cmd_verify(config: dict) -> int:
    metric = _build_metric(config)
    params = _class_params(config)
    ledger = constant_ledger(params)
    suite_sec = config.get("suites", {})
    names = [s.strip() for s in suite_sec.get("run", ",".join(SUITES)).split(",")
             if s.strip()]
    require_suites(names)            # before the solve: bad names exit 2
    tolerance = _float(suite_sec, "tolerance")
    metric.on_fine.jet   # the solve's order-2 jet; the summary reads it too
    # before the solve: a metric whose summary overflows is bad input
    extras = _summary_extras(metric, params)
    pot = _solve(metric, config)
    checks = run_all_checks(pot, ledger, tolerance, suites=names)
    extras["ledger"] = ledger.as_dict()
    doc = rep.build_report(checks, config, seed=_seed(config), extras=extras)
    _emit(config, doc, lambda: rep.checks_csv(checks))
    failed = any(c.verdict == "fail" for c in checks)
    return EXIT_FAIL if failed else EXIT_PASS


def cmd_sequence(config: dict) -> int:
    sec = config.get("suites", {})
    family = config.get("metric", {}).get("family") \
        or sec.get("sequence_family")
    if not family:
        raise ConfigError("sequence requires a family name")
    if family not in fam.FAMILIES:
        raise ConfigError(
            f"unknown family {family!r}; choose from {sorted(fam.FAMILIES)}")
    count = _int(sec, "sequence_count", 10)
    if count > MAX_SEQUENCE_COUNT:
        raise ConfigError(f"sequence count must be at most "
                          f"{MAX_SEQUENCE_COUNT}, got {count}")
    spec = SequenceSpec(family=family, schedule=_schedule(family, count),
                        name=f"{family}-dyadic")
    params = _class_params(config)
    convergence = run_sequence(spec, params)
    doc = rep.build_report([], config, seed=_seed(config),
                           sequence=convergence)
    _emit(config, doc, lambda: rep.sequence_csv(convergence))
    return EXIT_PASS


def cmd_pointpick(config: dict) -> int:
    metric = _build_metric(config)
    radius = _float(config.get("suites", {}), "pointpick_radius", 0.1)
    require_pick_radius(radius)   # before the summary it would pay for
    summarize(metric)   # before the scan: an overflowing metric is bad input
    result = point_pick(metric, radius)
    extras = {"pointpick": {"radius": radius, **vars(result)}}
    doc = rep.build_report([], config, seed=_seed(config), extras=extras)
    _emit(config, doc, lambda: _key_value_csv(extras["pointpick"].items()))
    if not result.certificate_ok:
        return EXIT_FAIL
    return EXIT_PASS


def cmd_families(config: dict) -> int:
    lines = []
    for name in sorted(fam.FAMILY_CATALOG):
        lines.append(name)
        catalog = fam.FAMILY_CATALOG[name]
        if not catalog:
            lines.append("    (no parameters)")
        defaults = _defaults(name)
        for pname in sorted(catalog):
            admissible, meaning = catalog[pname]
            default = defaults[pname]
            if default is inspect.Parameter.empty:
                shown = "required"
            elif default is None:
                shown = "optional"
            else:
                shown = f"default {default}"
            lines.append(f"    {pname}: {meaning} [{admissible}; {shown}]")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_PASS


@functools.cache
def _keep_freed_heap() -> bool:
    """Ask glibc, once per process, to keep up to HEAP_KEEP_BYTES of freed
    heap instead of returning it to the system; True if it accepted.
    Does nothing where the C library is not glibc or mallopt cannot be
    found.  It changes only where memory is reused from, never a
    result."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TRIM_THRESHOLD, HEAP_KEEP_BYTES) == 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="warpedsphere",
        description="Warped 3-sphere verification laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, solver=False):
        p.add_argument("config", nargs="?", help="INI scenario config")
        p.add_argument("--family", help="metric family name")
        p.add_argument("--param", action="append",
                       help="family parameter key=value (repeatable)")
        p.add_argument("--grid-size", dest="grid_size", help="grid nodes")
        p.add_argument("--output", help="report file path")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--seed", help="seed recorded in the report")
        if solver:
            p.add_argument("--solver", choices=("quadrature", "bvp"),
                           help="potential solver (bvp needs scipy)")
            p.add_argument("--epsilon", help="BVP truncation epsilon")
            p.add_argument("--tolerance", help="check tolerance override")

    common(sub.add_parser("analyze", help="geometry summary only"))
    verify = sub.add_parser("verify", help="run inequality check suites")
    common(verify, solver=True)
    verify.add_argument("--suites", help="comma list among "
                        + ",".join(SUITES))
    seq = sub.add_parser("sequence", help="dyadic convergence experiment")
    common(seq)
    seq.add_argument("--count", help="number of schedule indices")
    pick = sub.add_parser("pointpick", help="antipodal ball-pair scan")
    common(pick)
    pick.add_argument("--radius", help="ball radius in (0, 0.5]")
    sub.add_parser("families", help="list families and admissible ranges")
    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "sequence": cmd_sequence,
    "pointpick": cmd_pointpick,
    "families": cmd_families,
}


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _parser().parse_args(argv)
    try:
        config = _read_config(args.config) if getattr(args, "config", None) \
            else {}
        config = _merge_cli(config, args)
        return COMMANDS[args.command](config)
    except (ConfigError, DomainError, StructuralError, ConstructionError,
            DegenerateMetricError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (SolverError, IterationError, ResidualGuardError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER
    except WarpedSphereError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
