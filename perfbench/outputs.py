"""Checking the program's output for each benchmark call.

A call's *digest* is its exit code, its verdict list and its JSON report
with the timestamp removed.  For the shipped seeds the digests of the
first inputs of every workload are stored under `reference/`; a call on
one of those inputs must match its digest:

* certified quantities (`CERTIFIED` keys, the membership flags, the
  verdicts) and every other non-float value exactly;
* every other float within a relative tolerance of `REL_TOL`.

Fields the reference does not hold are not compared, so a report that
gains fields still matches.  Every other call is held to invariants: exit
code 0 or 1, a report that parses, and diameter_lower <= diameter_upper
wherever both appear.
"""

from __future__ import annotations

import gzip
import json
import math
import os

#: floats that are certificates and must not move at all
CERTIFIED = frozenset({"diameter_lower", "diameter_upper",
                       "cheeger_surrogate"})

#: relative tolerance for every other float in a report
REL_TOL = 1e-9

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

#: seeds whose leading inputs have stored digests
SHIPPED_SEEDS = tuple(range(1, 11))

#: leading inputs per workload and shipped seed that have stored digests
REFERENCE_INPUTS = {"verify": 16, "sequence": 16, "pointpick": 48}


def digest(exit_code: int, stdout: str) -> dict:
    """Exit code, verdict list and timestamp-free report of one call."""
    report = json.loads(stdout)
    report.pop("timestamp", None)
    return {"exit": exit_code,
            "verdicts": [c["verdict"] for c in report.get("checks", [])],
            "report": report}


def _mismatch(ref, got, path: str, certified: bool) -> str | None:
    """First difference of `got` from `ref` as a path string, or None."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for key, value in ref.items():
            if key not in got:
                return f"{path}/{key}: missing"
            found = _mismatch(value, got[key], f"{path}/{key}",
                              certified or key in CERTIFIED)
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: expected a list of {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            found = _mismatch(r, g, f"{path}/{i}", certified)
            if found:
                return found
        return None
    if isinstance(ref, float) and isinstance(got, float) and not certified:
        if abs(ref - got) <= REL_TOL * max(abs(ref), abs(got)):
            return None
        return f"{path}: {got!r} differs from {ref!r} by more than {REL_TOL}"
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {got!r} != {ref!r}"
    return None


def compare(reference: dict, exit_code: int, stdout: str) -> str | None:
    """Why a call's output disagrees with its stored digest, or None."""
    try:
        got = digest(exit_code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"report does not parse: {exc}"
    return _mismatch(reference, got, "", certified=False)


def _brackets(node):
    """Every (diameter_lower, diameter_upper) pair in a report."""
    if isinstance(node, dict):
        if "diameter_lower" in node and "diameter_upper" in node:
            yield node["diameter_lower"], node["diameter_upper"]
        for value in node.values():
            yield from _brackets(value)
    elif isinstance(node, list):
        for value in node:
            yield from _brackets(value)


def invariants(exit_code: int, stdout: str) -> str | None:
    """Why a call without a stored digest is wrong, or None."""
    if exit_code not in (0, 1):
        return f"exit code {exit_code}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"report does not parse: {exc}"
    if not isinstance(report, dict) or "run_id" not in report:
        return "report is not a run report"
    for lo, hi in _brackets(report):
        if isinstance(lo, float) and isinstance(hi, float) \
                and math.isfinite(lo) and math.isfinite(hi) and lo > hi:
            return f"diameter_lower {lo!r} > diameter_upper {hi!r}"
    return None


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_references(workload: str, seed: int) -> list[dict]:
    """Stored {"argv", "digest"} records for the leading inputs of `seed`;
    empty for a seed that is not shipped."""
    if seed not in SHIPPED_SEEDS:
        return []
    with gzip.open(reference_path(workload), "rt") as handle:
        return json.load(handle)[str(seed)]


def save_references(workload: str, by_seed: dict) -> None:
    data = json.dumps({str(k): v for k, v in sorted(by_seed.items())},
                      sort_keys=True, separators=(",", ":"))
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(reference_path(workload), "wb") as handle:
        handle.write(gzip.compress(data.encode(), mtime=0))
