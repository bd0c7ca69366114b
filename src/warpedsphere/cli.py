"""Batch front end: run scenarios from config files or flags.

Subcommands: analyze (geometry summary), verify (check suites),
sequence (convergence experiment), pointpick, families.  Every command
checks every setting it is given, so a bad value exits 2 even in a
section it does not use, and builds the constant ledger of the class
bounds, so bounds whose ledger is not finite exit 2.  `families` owns
the family parameters, their ranges, the schedules and the listing.
`sequence` refuses family parameters, profiles and a grid: its schedule
sets the members on the family's own grid.  `verify` solves the
potential by `solve_quadrature`, the one solver, with its fixed
self-check, and judges each check within its grid's `tol_disc`: no
setting tunes either.  analyze and pointpick write CSV as key,value
tables.

Exit codes: 0 all checks pass, 1 at least one margin failure,
2 invalid input or configuration, 3 a potential refused by its checks.
Membership failures are findings, not check failures.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import functools
import os
import sys
from typing import Callable

from .errors import (ConfigError, ResidualGuardError, SolverError,
                     WarpedSphereError)
from .grids import MAX_NODES, MIN_NODES, RadialGrid
from .metrics import ClassParams, load_profile_table, summarize
from . import families as fam
from .functionals import point_pick, require_pick_radius
from .potential import solve_quadrature
from .constants import constant_ledger
from .verification import (SUITES, SequenceSpec, require_suites,
                           run_all_checks, run_sequence)
from . import report as rep

#: every scenario setting, section -> key -> (type, default); a type is
#: str, int, float or a tuple of the admissible strings
SETTINGS = {
    "metric": {"family": (str, "round"), "profile": (str, None),
               **{key: (float, None) for catalog in fam.FAMILY_CATALOG.values()
                  for key in catalog}},
    "grid": {"kind": (("uniform", "graded"), "uniform"), "n": (int, None)},
    "class": {"volume_max": (float, 40.0), "diameter_max": (float, 10.0),
              "mass_max": (float, 1.0), "cheeger_min": (float, 1.0)},
    "suites": {"run": (str, ",".join(SUITES)),
               "pointpick_radius": (float, 0.1),
               "sequence_count": (int, 10)},
    "output": {"path": (str, None), "format": (("csv", "json"), "json"),
               "seed": (int, None)},
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


def _read_config(path: str) -> dict:
    """The sections of the scenario file at `path`.  A file configparser
    cannot decode or parse is invalid input, reported on one line."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        return {name: dict(parser.items(name)) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          + " ".join(str(exc).split())) from None


def _merge_cli(config: dict, args) -> dict:
    """Apply command-line flags on top of the config file: each flag's
    value under its dest, "section.key", and each --param in [metric]."""
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            config.setdefault(section, {})[key] = value
    for spec in getattr(args, "param", None) or []:
        if "=" not in spec:
            raise ConfigError(f"--param expects key=value, got {spec!r}")
        key, value = spec.split("=", 1)
        config.setdefault("metric", {})[key] = value
    return config


def _typed(section: str, key: str, value: str):
    """A given value of a setting as the setting's type."""
    kind = SETTINGS[section][key][0]
    if isinstance(kind, tuple) and value not in kind:
        raise ConfigError(f"{section} {key} must be {' or '.join(kind)}, "
                          f"got {value!r}")
    if kind not in (int, float):
        return value
    try:
        return kind(value)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None


def _settings(config: dict) -> dict:
    """Every value of SETTINGS, typed and range-checked for any command;
    the given family parameters under "params", the grid built (None:
    the family's own), the class bounds as ClassParams, their constant
    ledger under "ledger" and the suites as a list of names."""
    for section, given in config.items():
        allowed = SETTINGS.get(section)
        if allowed is None:
            raise ConfigError(f"unknown config section [{section}]")
        for key in given:
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section "
                                  f"[{section}]; allowed: {sorted(allowed)}")
    s = {section: {key: _typed(section, key, config[section][key])
                   if key in config.get(section, {}) else default
                   for key, (_, default) in keys.items()}
         for section, keys in SETTINGS.items()}
    if s["metric"]["profile"] is not None and (
            len(config["metric"]) > 1 or "grid" in config):
        raise ConfigError("profile tables take no family, parameters or grid")
    s["params"] = {key: s["metric"][key] for key in config.get("metric", {})
                   if key not in ("family", "profile")}
    fam.require_params(s["metric"]["family"], s["params"], complete=False)
    kind, n = s["grid"]["kind"], s["grid"]["n"]
    if n is not None and n < MIN_NODES:
        raise ConfigError(f"grid n must be at least {MIN_NODES}, got {n}")
    if n is not None and n > MAX_NODES:
        raise ConfigError(f"grid n must be at most {MAX_NODES}, got {n}")
    s["class"] = ClassParams(**s["class"])
    s["ledger"] = constant_ledger(s["class"])
    suites = s["suites"]
    suites["run"] = [name.strip() for name in suites["run"].split(",")
                     if name.strip()]
    require_suites(suites["run"])
    require_pick_radius(suites["pointpick_radius"])
    fam.require_count(suites["sequence_count"])
    s["grid"] = None if n is None else getattr(RadialGrid, kind)(n)
    return s


def _build_metric(s: dict):
    """The scenario's metric: its profile table, or its family member."""
    if s["metric"]["profile"] is not None:
        return load_profile_table(s["metric"]["profile"])
    return fam.make(s["metric"]["family"], grid=s["grid"], **s["params"])


def _emit(config: dict, s: dict, csv_text: Callable[[], str],
          checks=(), **blocks) -> None:
    """Write the report of `checks` and `blocks` as JSON, or the CSV text
    `csv_text()` builds, called only when the format is csv."""
    out = s["output"]
    text = csv_text() if out["format"] == "csv" else rep.report_json(
        rep.build_report(config, out["seed"], checks, **blocks))
    if out["path"]:
        rep.write_text_atomic(out["path"], text)
    else:
        sys.stdout.write(text)


def _summary_blocks(metric, params: ClassParams) -> dict:
    """The metric block of a report, and `summarize`'s two records as its
    summary and membership blocks."""
    summary, membership = summarize(metric, params)
    return {"metric": {"name": metric.name, "params": metric.params,
                       "grid_n": metric.grid.n},
            "summary": summary, "membership": membership}


def cmd_analyze(config: dict, s: dict) -> int:
    blocks = _summary_blocks(_build_metric(s), s["class"])
    _emit(config, s, lambda: rep.key_value_csv(
        (f"{group}.{key}", value) for group in ("summary", "membership")
        for key, value in vars(blocks[group]).items()), **blocks)
    return EXIT_PASS


def cmd_verify(config: dict, s: dict) -> int:
    metric = _build_metric(s)
    metric.on_fine.jet   # the solve's order-2 jet; the summary reads it too
    # before the solve: a metric whose summary overflows is bad input
    blocks = _summary_blocks(metric, s["class"])
    checks = run_all_checks(solve_quadrature(metric), s["ledger"],
                            suites=s["suites"]["run"])
    _emit(config, s, lambda: rep.checks_csv(checks), checks,
          ledger=s["ledger"], **blocks)
    return EXIT_FAIL if any(c.verdict == "fail" for c in checks) \
        else EXIT_PASS


def cmd_sequence(config: dict, s: dict) -> int:
    given = config.get("metric", {})
    if "family" not in given:
        raise ConfigError("sequence requires a family name")
    if len(given) > 1 or "grid" in config:
        raise ConfigError("sequence takes no family parameters, profile or "
                          "grid: its schedule sets its members")
    family = s["metric"]["family"]
    spec = SequenceSpec(
        family=family, name=f"{family}-dyadic",
        schedule=fam.schedule(family, s["suites"]["sequence_count"]))
    convergence = run_sequence(spec, s["class"])
    _emit(config, s, lambda: rep.sequence_csv(convergence),
          sequence=convergence)
    return EXIT_PASS


def cmd_pointpick(config: dict, s: dict) -> int:
    metric, radius = _build_metric(s), s["suites"]["pointpick_radius"]
    # before the scan: an overflowing metric is bad input
    summary, _ = summarize(metric, s["class"])
    result = point_pick(metric, radius, summary)
    _emit(config, s, lambda: rep.key_value_csv(vars(result).items()),
          pointpick=result)
    return EXIT_PASS if result.certificate_ok else EXIT_FAIL


def cmd_families(config: dict, s: dict) -> int:
    lines = []
    for family, rows in sorted(fam.FAMILY_CATALOG.items()):
        lines += [family] if rows else [family, "    (no parameters)"]
        for name, row in sorted(rows.items()):
            default = fam.DEFAULTS[family][name]
            limits = "; ".join(filter(None, (f"{name} in {row.interval}",
                                             row.relation)))
            shown = ("required" if default is fam.REQUIRED else "optional"
                     if default is None else f"default {default}")
            lines.append(f"    {name}: {row.meaning} [{limits}; {shown}]")
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

    def option(p, flag, dest, help=None):
        """Add `flag` for the setting `dest` = "section.key"."""
        kind = SETTINGS[dest.split(".")[0]][dest.split(".")[1]][0]
        choices = kind if isinstance(kind, tuple) else None
        metavar = None if choices else flag[2:].upper().replace("-", "_")
        p.add_argument(flag, dest=dest, help=help, choices=choices,
                       metavar=metavar)

    def common(p):
        p.add_argument("config", nargs="?", help="INI scenario config")
        option(p, "--family", "metric.family", "metric family name")
        p.add_argument("--param", action="append",
                       help="family parameter key=value (repeatable)")
        option(p, "--grid-size", "grid.n", "grid nodes")
        option(p, "--output", "output.path", "report file path")
        option(p, "--format", "output.format")
        option(p, "--seed", "output.seed", "seed recorded in the report")

    common(sub.add_parser("analyze", help="geometry summary only"))
    verify = sub.add_parser("verify", help="run inequality check suites")
    common(verify)
    option(verify, "--suites", "suites.run",
           "comma list among " + ",".join(SUITES))
    seq = sub.add_parser("sequence", help="dyadic convergence experiment")
    common(seq)
    option(seq, "--count", "suites.sequence_count",
           "number of schedule indices")
    pick = sub.add_parser("pointpick", help="antipodal ball-pair scan")
    common(pick)
    option(pick, "--radius", "suites.pointpick_radius",
           "ball radius in (0, 0.5]")
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
        config = _merge_cli(_read_config(args.config)
                            if getattr(args, "config", None) else {}, args)
        return COMMANDS[args.command](config, _settings(config))
    except (SolverError, ResidualGuardError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER
    except (WarpedSphereError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
